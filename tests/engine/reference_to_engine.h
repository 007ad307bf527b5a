#ifndef ESR_TESTS_ENGINE_REFERENCE_TO_ENGINE_H_
#define ESR_TESTS_ENGINE_REFERENCE_TO_ENGINE_H_

#include <memory>
#include <unordered_map>

#include "common/metrics.h"
#include "hierarchy/accumulator.h"
#include "hierarchy/group_schema.h"
#include "storage/object_store.h"
#include "txn/data_manager.h"
#include "txn/engine.h"
#include "txn/op_kernel.h"
#include "txn/transaction.h"

namespace esr {
namespace testing {

/// The differential test's reference: the paper's TO scheduler written
/// as directly as possible over one monolithic ObjectStore — a
/// transaction registry, the shared Fig. 3 op kernel, and commit/abort
/// teardown in place. No latches, shell pooling or profiler phases: it
/// is single-threaded and exists only to be compared against the
/// production engine (ShardedEngine) op by op and trace event by trace
/// event.
class ReferenceToEngine final : public TransactionEngine {
 public:
  /// `store`, `schema` and `metrics` must outlive the engine.
  ReferenceToEngine(ObjectStore* store, const GroupSchema* schema,
                    MetricRegistry* metrics);

  TxnId Begin(TxnType type, Timestamp ts, const BoundSpec& bounds) override;
  OpResult Read(TxnId txn, ObjectId object) override;
  OpResult Write(TxnId txn, ObjectId object, Value value) override;
  Status Commit(TxnId txn) override;
  Status Abort(TxnId txn) override;
  bool IsActive(TxnId txn) const override;
  const Transaction* Find(TxnId txn) const override;
  size_t num_active() const override { return transactions_.size(); }

 private:
  OpResult Execute(TxnId txn, ObjectId object, bool is_write, Value value);
  /// Commit (`reason` kNone) or client-requested abort.
  Status Finish(TxnId txn, AbortReason reason);
  /// Commits (`reason` kNone) or aborts `txn` and releases what it holds.
  void Teardown(Transaction& txn, AbortReason reason);

  const GroupSchema* schema_;
  DataManager data_manager_;
  TxnId next_txn_id_ = 1;
  std::unordered_map<TxnId, std::unique_ptr<Transaction>> transactions_;
  BoundCheckStats bound_stats_;
  EngineCounters counters_;
  OpKernel kernel_;
};

}  // namespace testing
}  // namespace esr

#endif  // ESR_TESTS_ENGINE_REFERENCE_TO_ENGINE_H_
