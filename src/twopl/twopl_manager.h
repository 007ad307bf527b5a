#ifndef ESR_TWOPL_TWOPL_MANAGER_H_
#define ESR_TWOPL_TWOPL_MANAGER_H_

#include <algorithm>
#include <mutex>

#include "common/flat_map.h"
#include "common/metrics.h"
#include "hierarchy/accumulator.h"
#include "obs/profile.h"
#include "hierarchy/group_schema.h"
#include "storage/object_store.h"
#include "twopl/lock_table.h"
#include "txn/data_manager.h"
#include "txn/engine.h"
#include "txn/op_kernel.h"

namespace esr {

/// Strict two-phase locking engine with wait-die deadlock prevention —
/// the concurrency-control alternative the paper's prototype avoided
/// because of "the problem of deadlock detection and recovery" (Sec. 4)
/// — extended with divergence control in the style of Wu et al. [21]:
///
///  * SR transactions (and all update ETs' reads) take S/X locks, held
///    until commit/abort; conflicts resolve by wait-die on the begin
///    timestamps, so the wait graph is acyclic by construction.
///  * ESR query ETs (TIL > 0) read WITHOUT locks: the read sees the
///    present (possibly dirty) value and is admitted iff its measured
///    inconsistency d = |present - proper| passes the object, group, and
///    transaction level checks — the same bottom-up control as the TO
///    engine, so the two protocols are comparable like-for-like.
///  * An update ET writing an object that registered ESR query readers
///    exports inconsistency to them, bounded by OEL and its TEL.
///
/// Shares the storage substrate (shadow values, bounded write history,
/// reader registration) with the TO engine; timestamps order wait-die
/// priorities and anchor the proper-value lookup.
class TwoPLManager final : public TransactionEngine {
 public:
  TwoPLManager(ObjectStore* store, const GroupSchema* schema,
               MetricRegistry* metrics,
               const DivergenceOptions& divergence = {});

  TwoPLManager(const TwoPLManager&) = delete;
  TwoPLManager& operator=(const TwoPLManager&) = delete;

  TxnId Begin(TxnType type, Timestamp ts, const BoundSpec& bounds) override;
  OpResult Read(TxnId txn, ObjectId object) override;
  OpResult Write(TxnId txn, ObjectId object, Value value) override;
  Status Commit(TxnId txn) override;
  Status Abort(TxnId txn) override;
  bool IsActive(TxnId txn) const override;
  const Transaction* Find(TxnId txn) const override;
  size_t num_active() const override;

  void SetHeadroomTracker(NodeHeadroomTracker* tracker) override {
    std::lock_guard<ProfiledMutex> lock(mu_);
    headroom_tracker_ = tracker;
  }

  /// Pre-sizes the transaction registry and lock table for the expected
  /// MPL and access-set size (no rehash on the operation path).
  void ReserveForLoad(const LoadHints& hints) override {
    std::lock_guard<ProfiledMutex> lock(mu_);
    if (hints.concurrent_txns > 0) {
      transactions_.Reserve(2 * hints.concurrent_txns);
      locks_.Reserve(2 * hints.concurrent_txns *
                         std::max<size_t>(1, hints.objects_per_txn),
                     2 * hints.concurrent_txns);
    }
    access_hint_ = hints.objects_per_txn;
  }

  LockTable& lock_table() { return locks_; }

 private:
  Transaction& GetActive(TxnId txn);
  OpResult AbortOp(Transaction& txn, AbortReason reason);
  /// Commit (`reason` kNone) or client-requested abort.
  Status Finish(TxnId txn, AbortReason reason);
  /// Commits (`reason` kNone) or aborts `txn` and releases its locks.
  void Teardown(Transaction& txn, AbortReason reason);
  /// Read/Write under the engine latch.
  OpResult Execute(TxnId txn, ObjectId object, bool is_write, Value value);
  OpResult DoRead(Transaction& txn, ObjectId object);
  OpResult DoWrite(Transaction& txn, ObjectId object, Value value);
  /// Maps a lock grant to the OpResult control flow; true if granted.
  bool HandleGrant(Transaction& txn, ObjectId object,
                   const LockTable::Grant& grant, OpResult* result);

  /// Engine latch, doubling as a wall-clock contention site (waiters
  /// blame the transaction the critical section currently serves).
  mutable ProfiledMutex mu_{"twopl.engine_mu"};
  const GroupSchema* schema_;
  MetricRegistry* metrics_;
  DataManager data_manager_;
  LockTable locks_;
  TxnId next_txn_id_ = 1;
  /// Headroom telemetry sink for new transactions' accumulators (see
  /// NodeHeadroomTracker); not owned, may be null.
  NodeHeadroomTracker* headroom_tracker_ = nullptr;
  /// Expected access-set size for new transactions (0 = no pre-sizing).
  size_t access_hint_ = 0;
  FlatMap<TxnId, Transaction> transactions_;
  /// Per-level bound-check outcome counters (Sec. 5 observability).
  BoundCheckStats bound_stats_;
  /// Hot-path counters resolved once at construction so per-operation
  /// accounting is an atomic increment, not a map lookup.
  EngineCounters counters_;
  /// Import/export admission shared with the TO engines.
  OpKernel kernel_;
};

}  // namespace esr

#endif  // ESR_TWOPL_TWOPL_MANAGER_H_
