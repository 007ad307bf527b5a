#ifndef ESR_MVTO_MVTO_MANAGER_H_
#define ESR_MVTO_MVTO_MANAGER_H_

#include <mutex>
#include "common/flat_map.h"

#include "common/metrics.h"
#include "hierarchy/group_schema.h"
#include "mvto/version_store.h"
#include "txn/engine.h"

namespace esr {

/// Multiversion timestamp ordering — the comparator Sec. 5.1 explicitly
/// distinguishes from the paper's mechanism. Reads return the version
/// "written by the last write with a timestamp lesser than this read"
/// (never the present value), so query ETs observe a perfectly
/// serializable snapshot: zero inconsistency, no bound checks, and no
/// read-side aborts other than falling off the bounded version chain.
/// The price is version storage and stale answers; the comparison bench
/// quantifies the throughput side against TO-ESR and 2PL-ESR.
///
/// Inconsistency bounds are accepted but ignored (every answer is
/// consistent, i.e. within any bound).
class MvtoManager final : public TransactionEngine {
 public:
  MvtoManager(const ObjectStoreOptions& store_options,
              const GroupSchema* schema, MetricRegistry* metrics);

  MvtoManager(const MvtoManager&) = delete;
  MvtoManager& operator=(const MvtoManager&) = delete;

  TxnId Begin(TxnType type, Timestamp ts, const BoundSpec& bounds) override;
  OpResult Read(TxnId txn, ObjectId object) override;
  OpResult Write(TxnId txn, ObjectId object, Value value) override;
  Status Commit(TxnId txn) override;
  Status Abort(TxnId txn) override;
  bool IsActive(TxnId txn) const override;
  const Transaction* Find(TxnId txn) const override;
  size_t num_active() const override;

  VersionStore& store() { return store_; }

 private:
  Transaction& GetActive(TxnId txn);
  OpResult AbortOp(Transaction& txn, AbortReason reason);
  /// Commit (`reason` kNone) or client-requested abort.
  Status Finish(TxnId txn, AbortReason reason);
  void Teardown(Transaction& txn, AbortReason reason);

  mutable std::mutex mu_;
  const GroupSchema* schema_;
  MetricRegistry* metrics_;
  VersionStore store_;
  TxnId next_txn_id_ = 1;
  FlatMap<TxnId, Transaction> transactions_;
  /// Hot-path counters resolved once at construction so per-operation
  /// accounting is an atomic increment, not a map lookup.
  EngineCounters counters_;
};

}  // namespace esr

#endif  // ESR_MVTO_MVTO_MANAGER_H_
