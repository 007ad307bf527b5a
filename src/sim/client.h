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

  ClientStats& operator+=(const ClientStats& other);
  ClientStats& operator-=(const ClientStats& other);
};

/// One simulated client workstation (Sec. 6): reads transactions from its
/// generated load, submits operations to the server over synchronous RPC,
/// retries operations told to wait, and resubmits aborted transactions
/// with a new timestamp until they complete.
///
/// The client has one RPC outstanding, and when a response lands only the
/// client acts on it: it updates its own state and sends the next
/// request. So an op costs two scheduled events, its request's arrival at
/// the server, which reserves the server CPU, and its execution there.
/// BEGIN and COMMIT, which take no CPU slot, run at their arrival. The
/// event that runs a call computes its response's landing instant
/// L = now + response travel, acts on the verdict as of L and schedules
/// the client's next arrival directly:
///   - the next op arrives at L + request travel;
///   - a wait retries the op WaitRetryDelay after L;
///   - an abort sends the resubmission's BEGIN RestartDelay after L;
///   - after the last op the COMMIT is sent at L;
///   - BEGIN's ack folds into the first op's send, and the COMMIT ack's
///     into the next transaction's BEGIN, sent at L with its timestamp
///     read from the clock at L.
///
/// What a landing changes on the client — its ClientStats delta, its
/// commit-latency sample and the end of its RPC span — is held as one
/// pending landing. It settles when the client's next event runs, or when
/// a reader asks at a time >= L (StatsAt, LatencyHistogramAt), so every
/// count reads as of its landing. RPC spans carry their send and landing
/// instants explicitly.
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

  /// Counters as of virtual time `now`, which is at or after the
  /// queue's current time: a response that has landed by `now` is
  /// counted, one still in flight is not.
  const ClientStats& StatsAt(SimTime now);
  SiteId site() const { return site_; }

  /// Commit-latency distribution (ms) of the commits acknowledged by
  /// `now` since the last reset. The cluster resets it at the end of
  /// warm-up, after StatsAt, so the merged run-level histogram covers
  /// exactly the measurement window (histograms, unlike the counters
  /// above, cannot be delta-subtracted).
  const Histogram& LatencyHistogramAt(SimTime now);
  void ResetLatencyHistogram() { latency_ms_.Reset(); }

  /// Landing instant of the response still to settle, or kNoLanding.
  SimTime pending_landing_at() const { return landing_.at; }
  static constexpr SimTime kNoLanding = INT64_MAX;

 private:
  // The client is strictly synchronous (one outstanding RPC), so these
  // steps chain through scheduled events without any reentrancy. The
  // Send* steps run as of a landing instant and schedule the request's
  // arrival; the *AtServer steps are the events.
  /// Draws the next transaction and sends its BEGIN at `at`.
  void SubmitTransaction(SimTime at);
  void SendBegin(SimTime send_at);
  void BeginAtServer();
  /// Sends the current op, or the COMMIT once the script is done.
  void SendOp(SimTime send_at);
  /// The op request has arrived: contend for the server CPU.
  void OpArrivesAtServer();
  /// Runs at the server once a CPU slot is free; acts on the verdict as
  /// of the response's landing.
  void ExecuteOpAtServer();
  void SendCommit(SimTime send_at);
  void CommitAtServer();
  /// Opens the pending landing at `at` for the RPC span `span`, which
  /// ends there; returns its zeroed stats delta to fill in.
  ClientStats& OpenLanding(SimTime at, uint64_t span);
  /// Folds the pending landing (if any) into stats_, the histogram and
  /// the trace.
  void SettleLanding();
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
  /// transaction span (parent for this client's RPC spans) and the op RPC
  /// span between its arrival and its execution. The BEGIN control RPC
  /// itself is not spanned — its TxnId does not exist until the server
  /// executes it.
  uint64_t txn_span_ = 0;
  uint64_t rpc_span_ = 0;
  size_t op_index_ = 0;
  std::vector<Value> read_results_;
  SimTime first_submit_at_ = 0;
  /// The RPC in flight: its send instant (for per-op latency and the
  /// span's begin), its response leg, and for a BEGIN the timestamp
  /// read at the send. Members rather than captures keep every event to
  /// one word (`this`); with one outstanding RPC per client they cannot
  /// be overwritten before they are read.
  SimTime sent_at_ = 0;
  SimTime response_travel_ = 0;
  Timestamp begin_ts_;
  /// Inconsistency imported/exported by the current attempt's OK ops;
  /// folded into stats_ only if the attempt commits.
  double attempt_inconsistency_ = 0.0;

  /// The response whose effects wait for its landing instant `at`.
  struct Landing {
    SimTime at = kNoLanding;
    ClientStats delta;
    /// Commit latency sample (ms); negative for an op response.
    double latency_ms = -1.0;
    uint64_t span = 0;
    TxnId span_txn = kInvalidTxnId;
  };
  Landing landing_;

  ClientStats stats_;
  Histogram latency_ms_;
};

}  // namespace esr

#endif  // ESR_SIM_CLIENT_H_
