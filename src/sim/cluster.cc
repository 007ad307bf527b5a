#include "sim/cluster.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/logging.h"
#include "common/random.h"
#include "obs/trace.h"

namespace esr {
namespace {

/// Time-source hook stamping trace events with the simulator's virtual
/// clock, so a trace of a simulated run lines up with the virtual
/// timeline the metrics are reported in.
int64_t VirtualNowMicros(void* ctx) {
  return static_cast<int64_t>(static_cast<const EventQueue*>(ctx)->now());
}

}  // namespace

ReplicaQueryStats& ReplicaQueryStats::operator-=(
    const ReplicaQueryStats& other) {
  attempted -= other.attempted;
  admitted -= other.admitted;
  estimated_import -= other.estimated_import;
  true_import -= other.true_import;
  return *this;
}

ReplicaQueryStats& ReplicaQueryStats::operator+=(
    const ReplicaQueryStats& other) {
  attempted += other.attempted;
  admitted += other.admitted;
  estimated_import += other.estimated_import;
  true_import += other.true_import;
  return *this;
}

/// A dashboard client running bounded sum queries against one replica.
/// Replica reads are local to the replica machine: they cost one RPC
/// round trip but no primary CPU. Latency is drawn from the client's own
/// stream, so dashboard load never perturbs the primary clients' draws.
class Cluster::ReplicaQueryClient {
 public:
  ReplicaQueryClient(Cluster* cluster, int replica, uint64_t seed)
      : cluster_(cluster), replica_(replica), rng_(seed) {}

  void Start(SimTime at) {
    cluster_->queue_.ScheduleAt(at, [this] { IssueQuery(); });
  }

  const ReplicaQueryStats& stats() const { return stats_; }

 private:
  void IssueQuery() {
    // One RPC to the replica covers the whole local scan.
    const ClusterOptions& options = cluster_->options_;
    const SimTime rpc = static_cast<SimTime>(
        rng_.UniformDouble(options.latency.op_rpc_min_ms,
                           options.latency.op_rpc_max_ms) *
        kMicrosPerMilli);
    cluster_->queue_.ScheduleAfter(rpc, [this] { RunQuery(); });
  }

  void RunQuery() {
    const ClusterOptions& options = cluster_->options_;
    EventQueue& queue = cluster_->queue_;
    ReplicatedDatabase& db = *cluster_->replication_;
    db.AdvanceTo(queue.now());
    objects_.clear();
    const size_t hot = options.workload.hot_set_size;
    while (objects_.size() <
               static_cast<size_t>(options.replicas.query_objects) &&
           objects_.size() < hot) {
      const ObjectId candidate = static_cast<ObjectId>(
          rng_.UniformInt(0, static_cast<int64_t>(hot) - 1));
      if (std::find(objects_.begin(), objects_.end(), candidate) ==
          objects_.end()) {
        objects_.push_back(candidate);
      }
    }
    ++stats_.attempted;
    const auto q =
        db.ReplicaSumQuery(replica_, objects_, options.replicas.query_til);
    SimTime next;
    if (q.ok()) {
      ++stats_.admitted;
      stats_.estimated_import += q->estimated_import;
      stats_.true_import += q->true_import;
      next = static_cast<SimTime>(options.latency.null_rpc_ms *
                                  kMicrosPerMilli);
    } else {
      next = static_cast<SimTime>(options.replicas.query_retry_ms *
                                  kMicrosPerMilli);
    }
    queue.ScheduleAfter(next, [this] { IssueQuery(); });
  }

  Cluster* cluster_;
  int replica_;
  Rng rng_;
  ReplicaQueryStats stats_;
  std::vector<ObjectId> objects_;
};

std::string SimResult::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "mpl=%d tput=%.2f tps commits=%lld (q=%lld,u=%lld) "
                "aborts=%lld ops=%lld inconsistent=%lld waits=%lld",
                mpl, throughput(), static_cast<long long>(committed),
                static_cast<long long>(committed_query),
                static_cast<long long>(committed_update),
                static_cast<long long>(aborts),
                static_cast<long long>(ops_executed),
                static_cast<long long>(inconsistent_ops),
                static_cast<long long>(waits));
  return buf;
}

Cluster::Cluster(const ClusterOptions& options)
    : options_(options) {
  ESR_CHECK(options_.mpl >= 1);
  // Health detection replays the window stream, so it needs the sampler.
  if (options_.health) options_.collect_series = true;
  // The store must be populated consistently with the workload's universe.
  ServerOptions server_options = options_.server;
  server_options.store.num_objects = options_.workload.num_objects;
  server_options.store.min_value = options_.workload.min_value;
  server_options.store.max_value = options_.workload.max_value;
  server_options.store.seed = options_.seed ^ 0x5eedull;
  server_ = std::make_unique<Server>(server_options);
  const ReplicaOptions& replicas = options_.replicas;
  if (replicas.query_clients > 0) {
    replication_ = std::make_unique<ReplicatedDatabase>(replicas.replication,
                                                        server_.get());
  }

  // Pre-size the engine's transaction and lock tables for the steady
  // state: MPL concurrent transactions, each touching at most the
  // longest generated script's object count.
  const size_t ops_hint = static_cast<size_t>(
      std::max(options_.workload.query_ops_max,
               options_.workload.update_ops_max));
  server_->engine().ReserveForLoad(
      {static_cast<size_t>(options_.mpl), ops_hint});

  Rng master(options_.seed);
  // Per-site latency streams (site 0 = server is unused but keeps the
  // indexing aligned): each client's draws are independent of how the
  // other sites' events interleave.
  latency_ = std::make_unique<LatencyModel>(
      options_.latency, master.NextU64(),
      static_cast<size_t>(options_.mpl) + 1);
  Rng skew_rng = master.Fork();
  for (int i = 0; i < options_.mpl; ++i) {
    const SiteId site = static_cast<SiteId>(i + 1);
    WorkloadGenerator generator(options_.workload, master.NextU64());
    SkewedClock clock(site, options_.skew, &skew_rng);
    clients_.push_back(std::make_unique<SimClient>(
        site, server_.get(), &queue_, latency_.get(), std::move(generator),
        clock, replication_.get()));
  }
  for (int i = 0; i < replicas.query_clients; ++i) {
    query_clients_.push_back(std::make_unique<ReplicaQueryClient>(
        this, i % replicas.replication.num_replicas, master.NextU64()));
  }
  if (options_.collect_series) {
    SeriesSamplerOptions sampler_options;
    sampler_options.window_s = options_.series_window_s;
    sampler_options.source = options_.series_source;
    sampler_ = std::make_unique<SeriesSampler>(
        &queue_, server_.get(),
        [this] {
          SeriesSampler::Cumulative total;
          for (const auto& client : clients_) {
            const ClientStats& s = client->StatsAt(queue_.now());
            total.committed += s.committed;
            total.aborted += s.aborts;
            // The synchronous client resubmits every aborted attempt.
            total.restarts += s.aborts;
            total.op_responses += s.op_responses;
            total.op_latency_total_us += s.op_latency_total_us;
          }
          for (const auto& client : query_clients_) {
            // A rejected replica query is retried after a delay.
            const ReplicaQueryStats& q = client->stats();
            total.restarts += q.attempted - q.admitted;
          }
          return total;
        },
        sampler_options);
  }
}

Cluster::~Cluster() = default;

SimResult Cluster::Run() {
  // Only a run that owns the global recorder may touch its shared state
  // (time source, ring reset); worker-pool runs leave it alone entirely.
  std::optional<ScopedTraceTimeSource> trace_clock;
  if (options_.owns_trace) {
    trace_clock.emplace(&VirtualNowMicros, &queue_);
    // Every run restarts the virtual clock and transaction ids, so a
    // capture spanning several seeds would interleave unrelated events
    // under the same (txn, ts) keys and confuse both Perfetto and the
    // auditor. Keep only the most recent run in the ring: a figure binary
    // run with --trace exports its final configuration's final seed as one
    // coherent trace.
    if (GlobalTrace().enabled()) GlobalTrace().Reset();
  }
  // Streaming certification subscribes to the recorder for this run: the
  // certifier sees the bound-walk and lifecycle events it reads as they
  // are recorded and recertifies the walks window by window, in lockstep
  // with the sampler. Subscribing opens the probe gate without turning
  // capture on, so a certify-only run stores nothing and opens no spans.
  std::optional<ScopedTraceObserver> observer;
  if (options_.certify && !options_.owns_trace) {
    ESR_LOG(kWarning) << "streaming certification skipped: run does not "
                         "own the trace recorder (parallel worker pool)";
  } else if (options_.certify) {
#ifndef ESR_TRACE_DISABLED
    StreamCertifierOptions certifier_options;
    certifier_options.window_s = options_.series_window_s;
    certifier_options.source = options_.series_source;
    certifier_options.emit_trace_events = true;
    certifier_ = std::make_unique<StreamCertifier>(certifier_options);
    observer.emplace(&StreamCertifier::ObserveTrampoline, certifier_.get(),
                     StreamCertifier::kObservedKinds);
    if (sampler_ != nullptr) sampler_->set_certifier(certifier_.get());
#else
    ESR_LOG(kWarning) << "streaming certification skipped: tracing is "
                         "compiled out (ESR_DISABLE_TRACING)";
#endif
  }
  // Stagger client start-up slightly so sites do not run in lockstep.
  for (size_t i = 0; i < clients_.size(); ++i) {
    clients_[i]->Start(static_cast<SimTime>(i) * 3 * kMicrosPerMilli);
  }
  for (size_t i = 0; i < query_clients_.size(); ++i) {
    query_clients_[i]->Start(static_cast<SimTime>(i) * 5 * kMicrosPerMilli);
  }
  if (sampler_ != nullptr) {
    sampler_->ScheduleWindows(options_.warmup_s + options_.measure_s);
  }

  const SimTime warmup_end =
      static_cast<SimTime>(options_.warmup_s * kMicrosPerSecond);
  const SimTime measure_end =
      warmup_end +
      static_cast<SimTime>(options_.measure_s * kMicrosPerSecond);

  queue_.RunUntil(warmup_end);
  std::vector<ClientStats> at_warmup;
  at_warmup.reserve(clients_.size());
  for (const auto& client : clients_) {
    // A commit acknowledged after warmup_end belongs to the measurement,
    // even when the server committed it before.
    at_warmup.push_back(client->StatsAt(warmup_end));
    client->ResetLatencyHistogram();
  }
  std::vector<ReplicaQueryStats> queries_at_warmup;
  queries_at_warmup.reserve(query_clients_.size());
  for (const auto& client : query_clients_) {
    queries_at_warmup.push_back(client->stats());
  }

  queue_.RunUntil(measure_end);

  SimResult result;
  result.mpl = options_.mpl;
  result.elapsed_s = options_.measure_s;
  for (size_t i = 0; i < clients_.size(); ++i) {
    // Responses still in flight at measure_end are counted in neither
    // the stats nor the histogram.
    ClientStats delta = clients_[i]->StatsAt(measure_end);
    delta -= at_warmup[i];
    result.committed += delta.committed;
    result.committed_query += delta.committed_query;
    result.committed_update += delta.committed_update;
    result.aborts += delta.aborts;
    result.ops_executed += delta.ops_executed;
    result.ops_query += delta.ops_query;
    result.ops_update += delta.ops_update;
    result.inconsistent_ops += delta.inconsistent_ops;
    result.waits += delta.waits;
    result.import_total += delta.import_total;
    result.export_total += delta.export_total;
    result.txn_latency_total_us +=
        static_cast<double>(delta.txn_latency_total_us);
    result.latency_ms.Merge(clients_[i]->LatencyHistogramAt(measure_end));
  }
  for (size_t i = 0; i < query_clients_.size(); ++i) {
    ReplicaQueryStats delta = query_clients_[i]->stats();
    delta -= queries_at_warmup[i];
    result.replica_queries += delta;
  }
  if (sampler_ != nullptr) result.series = sampler_->TakeSeries();
  if (certifier_ != nullptr) {
    certifier_->AdvanceTo(static_cast<int64_t>(queue_.now()));
    result.certification = certifier_->Snapshot();
    if (sampler_ != nullptr) sampler_->set_certifier(nullptr);
  }
  if (options_.health) result.health = AnalyzeSeries(result.series);
  return result;
}

SimResult RunCluster(const ClusterOptions& options) {
  Cluster cluster(options);
  return cluster.Run();
}

}  // namespace esr
