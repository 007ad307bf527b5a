#ifndef ESR_SIM_CLIENT_H_
#define ESR_SIM_CLIENT_H_

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/timestamp.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/latency_model.h"
#include "sim/skewed_clock.h"
#include "txn/server.h"
#include "workload/generator.h"

namespace esr {

class ReplicatedDatabase;

/// Per-client counters; the cluster aggregates them over the measurement
/// window to produce the figures' metrics.
struct ClientStats {
  int64_t committed = 0;
  int64_t committed_query = 0;
  int64_t committed_update = 0;
  /// Server-side aborts observed (== resubmissions, "retries").
  int64_t aborts = 0;
  /// Successfully executed operations (reads + writes), including those
  /// belonging to attempts that later aborted — the Fig. 10 metric.
  int64_t ops_executed = 0;
  /// Split of ops_executed by the issuing transaction's type; feeds the
  /// per-class waste analysis of Fig. 13.
  int64_t ops_query = 0;
  int64_t ops_update = 0;
  /// Operations that succeeded after viewing inconsistency (Fig. 8).
  int64_t inconsistent_ops = 0;
  /// Wait responses (strict-ordering stalls).
  int64_t waits = 0;
  /// Total inconsistency imported by committed query ETs.
  double import_total = 0.0;
  /// Total inconsistency exported by committed update ETs.
  double export_total = 0.0;
  /// Sum of (commit time - first submission time) over committed txns, µs.
  int64_t txn_latency_total_us = 0;
  /// Operation RPC round trips completed (any verdict) and their total
  /// issue-to-response latency, µs — the telemetry sampler's per-window
  /// mean-op-latency numerator/denominator.
  int64_t op_responses = 0;
  int64_t op_latency_total_us = 0;

  ClientStats& operator-=(const ClientStats& other);
};

/// One simulated client workstation (Sec. 6): reads transactions from its
/// generated load, submits operations to the server over synchronous RPC,
/// retries operations told to wait, and resubmits aborted transactions
/// with a new timestamp until they complete.
///
/// Every RPC is two scheduled legs — request travel to the server, where
/// Begin, the op (under the shared server CPU) or Commit executes, and
/// response travel back.
class SimClient {
 public:
  /// With `replication` set, `server` is its primary and commits go
  /// through the replication layer, so committed writes propagate.
  SimClient(SiteId site, Server* server, EventQueue* queue,
            LatencyModel* latency, WorkloadGenerator generator,
            SkewedClock clock, ReplicatedDatabase* replication = nullptr);

  SimClient(const SimClient&) = delete;
  SimClient& operator=(const SimClient&) = delete;

  /// Schedules the first transaction submission at `start_at`.
  void Start(SimTime start_at);

  const ClientStats& stats() const { return stats_; }
  SiteId site() const { return site_; }

  /// Commit-latency distribution (ms) since the last reset. The cluster
  /// resets it at the end of warm-up so the merged run-level histogram
  /// covers exactly the measurement window (histograms, unlike the
  /// counters above, cannot be delta-subtracted).
  const Histogram& latency_histogram() const { return latency_ms_; }
  void ResetLatencyHistogram() { latency_ms_.Reset(); }

 private:
  // The client is strictly synchronous (one outstanding RPC), so these
  // steps chain through scheduled events without any reentrancy.
  void SubmitNextTransaction();
  void BeginCurrentTransaction();
  void IssueCurrentOp();
  /// Runs at the server once the request has arrived and a CPU slot is
  /// free; sends the response back.
  void ExecuteOpAtServer(SimTime response_travel);
  /// The response to the op RPC has landed: acts on op_result_.
  void HandleOpResult();
  void IssueCommit();
  /// The value a write op sends, derived from this attempt's reads.
  Value WriteValueFor(const ScriptOp& op) const;

  SiteId site_;
  Server* server_;
  ReplicatedDatabase* replication_;
  EventQueue* queue_;
  LatencyModel* latency_;
  WorkloadGenerator generator_;
  SkewedClock clock_;
  TimestampGenerator ts_gen_;

  TxnScript script_;
  TxnId txn_ = kInvalidTxnId;
  /// Causal-span plumbing across event-queue callbacks: the server-side
  /// transaction span (parent for this client's RPC spans) and the RPC
  /// span currently in flight. The BEGIN control RPC itself is not
  /// spanned — its TxnId does not exist until the server executes it.
  uint64_t txn_span_ = 0;
  uint64_t rpc_span_ = 0;
  size_t op_index_ = 0;
  std::vector<Value> read_results_;
  SimTime first_submit_at_ = 0;
  /// Issue instant of the op RPC in flight, for per-op latency.
  SimTime op_issued_at_ = 0;
  /// The server's verdict on the op RPC in flight, read when its
  /// response lands. A member rather than a capture keeps the response
  /// event to one word (`this`); with one outstanding RPC per client it
  /// cannot be overwritten before it is read.
  OpResult op_result_;
  /// Inconsistency imported/exported by the current attempt's OK ops;
  /// folded into stats_ only if the attempt commits.
  double attempt_inconsistency_ = 0.0;

  ClientStats stats_;
  Histogram latency_ms_;
};

}  // namespace esr

#endif  // ESR_SIM_CLIENT_H_
