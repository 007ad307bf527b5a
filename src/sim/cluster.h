#ifndef ESR_SIM_CLUSTER_H_
#define ESR_SIM_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "obs/health.h"
#include "obs/series.h"
#include "obs/stream_audit.h"
#include "replication/replicated_database.h"
#include "sim/client.h"
#include "sim/series_sampler.h"
#include "sim/event_queue.h"
#include "sim/latency_model.h"
#include "sim/skewed_clock.h"
#include "txn/server.h"
#include "workload/generator.h"

namespace esr {

/// The replicated topology (the conclusion's future-work scenario): the
/// server becomes a primary whose committed writes propagate to
/// read-only replicas, and dashboard clients run bounded sum queries
/// against the lagging replicas. Replica queries cost no primary CPU —
/// the scaling argument for pushing bounded-inconsistency reads there.
struct ReplicaOptions {
  /// Dashboard clients, spread round-robin over the replicas; 0 (the
  /// default) runs no replication layer.
  int query_clients = 0;
  ReplicationOptions replication;
  /// Import budget of each replica query, checked against the replica's
  /// conservative divergence estimate.
  Inconsistency query_til = 10'000;
  /// Objects per replica query, drawn from the hot set like the paper's
  /// sum queries.
  int query_objects = 20;
  /// Delay before a rejected replica query retries.
  double query_retry_ms = 50.0;
};

/// Full configuration of one simulated run: the central server plus `mpl`
/// client workstations (the paper's LAN limits MPL to 10, but the
/// simulator accepts any value).
struct ClusterOptions {
  int mpl = 4;
  WorkloadSpec workload;
  ServerOptions server;
  LatencyModelOptions latency;
  SkewedClockOptions skew;
  /// Simulated warm-up discarded from the metrics, and the measurement
  /// window, both in virtual seconds.
  double warmup_s = 5.0;
  double measure_s = 60.0;
  uint64_t seed = 1;
  /// Whether this run owns the process-global trace recorder. An owning
  /// run (the default — examples, tools, serial benches) installs its
  /// virtual clock as the recorder's time source and, when capture is
  /// enabled, resets the ring so the capture covers one coherent run. The
  /// parallel bench harness clears this for worker-pool runs so that
  /// concurrent clusters never mutate shared recorder state; trace capture
  /// itself forces the harness serial, keeping `--trace` a single-capture
  /// export. Metrics need no such flag: every run's Server owns a private
  /// MetricRegistry, so runs are metric-isolated by construction.
  bool owns_trace = true;
  /// Per-window telemetry (see SeriesSampler): when set, Run() fills
  /// SimResult::series with one window per `series_window_s` of virtual
  /// time covering warmup *and* measurement — the warmup ramp stays in
  /// the series so steady-state detection (MSER-5) can see it. Purely
  /// observational: the run's other results are identical either way.
  bool collect_series = false;
  double series_window_s = 1.0;
  /// Provenance string recorded in the exported series.
  std::string series_source;
  /// Online streaming certification (obs/stream_audit.h): Run()
  /// subscribes a StreamCertifier to the recorder for the event kinds it
  /// reads — without turning trace capture on, so a certify-only run
  /// stores no events and opens no spans — aligns its windows with
  /// `series_window_s`, and fills SimResult::certification. Requires owns_trace — worker-pool runs may
  /// never touch the shared recorder — and a build with tracing compiled
  /// in; otherwise certification is skipped with a warning. Purely
  /// observational: workload results are identical either way.
  bool certify = false;
  /// Windowed anomaly detection (obs/health.h): forces collect_series
  /// and, after the run, replays the collected series through the
  /// standard HealthMonitor detector set into SimResult::health. Purely
  /// observational and a pure function of the series bytes, so health
  /// output inherits the series' determinism contract (byte-identical
  /// at any --jobs level).
  bool health = false;
  /// Replicated topology (off unless replicas.query_clients > 0). The
  /// `mpl` clients then run against the primary and commit through the
  /// replication layer; a primary running only update ETs, as in the
  /// scenario, sets workload.query_fraction = 0.
  ReplicaOptions replicas;
};

/// Replica dashboard queries of a replicated run (see ReplicaOptions).
struct ReplicaQueryStats {
  int64_t attempted = 0;
  int64_t admitted = 0;
  /// Summed over admitted queries: the conservative estimate charged
  /// against the budget, and the true staleness.
  double estimated_import = 0.0;
  double true_import = 0.0;

  ReplicaQueryStats& operator-=(const ReplicaQueryStats& other);
  ReplicaQueryStats& operator+=(const ReplicaQueryStats& other);

  double admitted_fraction() const {
    return attempted > 0 ? static_cast<double>(admitted) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
  double avg_estimated_import() const {
    return admitted > 0 ? estimated_import / static_cast<double>(admitted)
                        : 0.0;
  }
  double avg_true_import() const {
    return admitted > 0 ? true_import / static_cast<double>(admitted) : 0.0;
  }
};

/// Aggregated outcome of a run over the measurement window — the
/// performance metrics of Sec. 7.
struct SimResult {
  int mpl = 0;
  double elapsed_s = 0.0;
  int64_t committed = 0;
  int64_t committed_query = 0;
  int64_t committed_update = 0;
  int64_t aborts = 0;
  int64_t ops_executed = 0;
  int64_t ops_query = 0;
  int64_t ops_update = 0;
  int64_t inconsistent_ops = 0;
  int64_t waits = 0;
  double import_total = 0.0;
  double export_total = 0.0;
  double txn_latency_total_us = 0.0;
  /// Commit-latency distribution over the measurement window (ms), merged
  /// across clients; feeds the percentile columns of the bench JSON.
  Histogram latency_ms;
  /// Per-window telemetry series (empty unless
  /// ClusterOptions::collect_series was set).
  RunSeries series;
  /// Streaming certification verdict (enabled == false unless
  /// ClusterOptions::certify ran).
  StreamCertification certification;
  /// Windowed anomaly-detection verdict over `series` (empty unless
  /// ClusterOptions::health was set).
  HealthReport health;
  /// Replica dashboard queries (zero unless ClusterOptions::replicas ran).
  ReplicaQueryStats replica_queries;

  /// Committed transactions per virtual second.
  double throughput() const {
    return elapsed_s > 0 ? static_cast<double>(committed) / elapsed_s : 0.0;
  }
  /// Fig. 13: operations executed per completed transaction, counting the
  /// work of aborted attempts.
  double ops_per_committed_txn() const {
    return committed > 0
               ? static_cast<double>(ops_executed) /
                     static_cast<double>(committed)
               : 0.0;
  }
  /// Fig. 13, query ETs only: the wasted-work effect concentrates in the
  /// class whose TIL is being squeezed.
  double query_ops_per_committed_query() const {
    return committed_query > 0
               ? static_cast<double>(ops_query) /
                     static_cast<double>(committed_query)
               : 0.0;
  }
  double avg_import_per_query() const {
    return committed_query > 0
               ? import_total / static_cast<double>(committed_query)
               : 0.0;
  }
  /// Admitted replica queries per virtual second.
  double replica_query_throughput() const {
    return elapsed_s > 0 ? static_cast<double>(replica_queries.admitted) /
                               elapsed_s
                         : 0.0;
  }
  double avg_txn_latency_ms() const {
    return committed > 0 ? txn_latency_total_us /
                               static_cast<double>(committed) / 1000.0
                         : 0.0;
  }

  std::string ToString() const;
};

/// Builds and runs the simulated prototype: server, latency model, skewed
/// client clocks, MPL synchronous clients and, in the replicated
/// topology, the replication layer and its dashboard clients, all
/// deterministically seeded and driven by one EventQueue. Same-time
/// events run in scheduling order (the queue's FIFO tie-break), so a
/// seed fixes every result byte.
class Cluster {
 public:
  explicit Cluster(const ClusterOptions& options);
  ~Cluster();  // out of line: ReplicaQueryClient is incomplete here

  /// Runs warm-up plus measurement window and returns the aggregated
  /// metrics of the measurement window.
  SimResult Run();

  Server& server() { return *server_; }
  EventQueue& queue() { return queue_; }

  /// Read-only one-lane view of queue(), kept for the event count in
  /// perfbench/sim_workloads.cc (`executor().lane(i).executed()`); the
  /// next benchmark change replaces that call with queue().executed().
  struct LaneView {
    const EventQueue& queue;
    size_t num_lanes() const { return 1; }
    const EventQueue& lane(size_t) const { return queue; }
  };
  LaneView executor() const { return {queue_}; }

 private:
  class ReplicaQueryClient;

  ClusterOptions options_;
  EventQueue queue_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<ReplicatedDatabase> replication_;
  std::unique_ptr<LatencyModel> latency_;
  std::vector<std::unique_ptr<SimClient>> clients_;
  std::vector<std::unique_ptr<ReplicaQueryClient>> query_clients_;
  /// Telemetry collector (nullptr unless options_.collect_series); a
  /// member rather than a Run() local because active transactions hold
  /// probe pointers into its tracker for the cluster's lifetime.
  std::unique_ptr<SeriesSampler> sampler_;
  /// Streaming certifier (nullptr unless options_.certify); subscribed to
  /// the global recorder for the duration of Run().
  std::unique_ptr<StreamCertifier> certifier_;
};

/// Convenience: configure-and-run in one call.
SimResult RunCluster(const ClusterOptions& options);

}  // namespace esr

#endif  // ESR_SIM_CLUSTER_H_
