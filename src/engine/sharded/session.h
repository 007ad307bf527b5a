#ifndef ESR_ENGINE_SHARDED_SESSION_H_
#define ESR_ENGINE_SHARDED_SESSION_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/timestamp.h"
#include "common/types.h"
#include "engine/sharded/sharded_engine.h"
#include "txn/server.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace esr {

/// Per-session outcome counters (the threaded server's ClientResult,
/// lifted into the library so the worker pool and the stress harness
/// share them).
struct SessionStats {
  int64_t committed = 0;
  int64_t aborts = 0;
  int64_t waits = 0;
};

/// One client session as a resumable state machine, so a worker thread
/// can multiplex many sessions over one batched submission loop instead
/// of parking a whole OS thread per client.
///
/// The protocol mirrors the paper's clients (Sec. 6): generate a script,
/// submit its ops in order, retry an op that waited, resubmit the whole
/// script with a fresh timestamp after an abort, and count a commit only
/// when the server accepts it. Begin and Commit run inline inside
/// NextOp — the sharded engine commits the transaction on the calling
/// worker thread, latching its shards one at a time, and never parks it
/// behind another committer — while Read/Write ops are handed out one at
/// a time for the worker to execute (batched through
/// ShardedEngine::ExecuteBatch or per-op against any other engine).
///
/// Usage per round: if NextOp fills an OpRequest, execute it and feed the
/// verdict back through OnResult before asking again. One in-flight op
/// per session, which is what ExecuteBatch's one-op-per-txn contract
/// needs.
class SessionDriver {
 public:
  /// `server` and `spec` must outlive the driver. `stop` (optional) makes
  /// NextOp return false early, aborting any in-flight transaction.
  SessionDriver(Server* server, SiteId site, const WorkloadSpec* spec,
                uint64_t seed, int target_txns,
                std::atomic<bool>* stop = nullptr,
                bool record_latency = true);

  SessionDriver(const SessionDriver&) = delete;
  SessionDriver& operator=(const SessionDriver&) = delete;

  /// Advances the session to its next Read/Write op, running Begin and
  /// Commit inline as needed. Returns false when the session is finished
  /// (target reached or stop raised) — permanently, see finished().
  bool NextOp(OpRequest* out);

  /// Feeds back the engine's verdict for the op NextOp last returned.
  void OnResult(const OpResult& r);

  bool finished() const { return finished_; }
  SiteId site() const { return site_; }
  const SessionStats& stats() const { return stats_; }

 private:
  void AbortInFlight();

  Server* server_;
  const WorkloadSpec* spec_;
  const SiteId site_;
  const int target_txns_;
  std::atomic<bool>* stop_;
  const bool record_latency_;

  WorkloadGenerator generator_;
  TimestampGenerator ts_gen_;

  TxnScript script_;
  bool script_valid_ = false;
  TxnId txn_ = kInvalidTxnId;
  size_t op_index_ = 0;
  std::vector<Value> reads_;
  int64_t started_us_ = 0;

  int completed_ = 0;
  bool finished_ = false;
  SessionStats stats_;
};

/// Worker-pool configuration for RunSessionWorkers.
struct SessionPoolOptions {
  size_t sessions = 16;
  int txns_per_session = 100;
  /// Worker threads multiplexing the sessions (each session is pinned to
  /// one worker). Clamped to [1, sessions].
  size_t workers = 4;
  /// Mixed into every session's generator seed; same seed + same spec =
  /// same scripts, so stress runs are replayable.
  uint64_t seed = 1;
  /// Optional per-round pause standing in for the RPC round trip (the
  /// thread-per-client loop's 150us); 0 runs memory-speed.
  int op_delay_us = 0;
  /// Optional external interrupt (signal handler, test timeout).
  std::atomic<bool>* stop = nullptr;
  /// Record client.txn_latency_ms samples into the server registry.
  bool record_latency = true;
};

struct SessionPoolResult {
  SessionStats total;
  double elapsed_s = 0.0;
  /// Per-session counters, indexed by session (site = index + 1).
  std::vector<SessionStats> per_session;
};

/// Drives `sessions` concurrent client sessions to completion over a pool
/// of worker threads. Against a ShardedEngine every worker submits one op
/// per live session per round through ExecuteBatch (one shard-latch
/// acquisition per shard per round); against any other engine it falls
/// back to per-op Server calls, so the harness can compare engines on
/// identical schedules.
SessionPoolResult RunSessionWorkers(Server* server, const WorkloadSpec& spec,
                                    const SessionPoolOptions& options);

}  // namespace esr

#endif  // ESR_ENGINE_SHARDED_SESSION_H_
