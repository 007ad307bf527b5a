#ifndef ESR_TXN_OP_KERNEL_H_
#define ESR_TXN_OP_KERNEL_H_

#include "cc/to_policy.h"
#include "common/types.h"
#include "hierarchy/accumulator.h"
#include "storage/object.h"
#include "txn/data_manager.h"
#include "txn/engine.h"
#include "txn/op_result.h"
#include "txn/transaction.h"

namespace esr {

class ShardedAccumulator;

/// An engine-wide epsilon budget charged ahead of each transaction's own
/// bounds (the sharded engine's SetSharedBounds). Null accumulators
/// disable the step.
struct SharedBudget {
  ShardedAccumulator* import_budget = nullptr;
  ShardedAccumulator* export_budget = nullptr;
  /// Shard the operation runs on (selects the per-shard charge partial).
  size_t shard = 0;
};

/// One operation of the paper's protocol: the timestamp-ordering decision
/// with the Fig. 3 relaxations, then for a relaxed case the object-level
/// OIL/OEL check and the Sec. 5.3.1 bottom-up bound walk, then the store
/// mutation and the per-operation accounting. The TO engine
/// (ShardedEngine) runs every Read/Write through it; the 2PL engine
/// reuses its admission and completion steps around its own locking.
///
/// The kernel never tears a transaction down: an abort verdict comes back
/// as OpResult::Abort(reason) and the engine runs its own teardown. It is
/// a handful of borrowed pointers, cheap to build per call.
class OpKernel {
 public:
  /// `data` measures divergence against the store holding the operated
  /// records; `bound_stats` receives the per-level bound-check counts.
  OpKernel(DataManager* data, EngineCounters* counters,
           BoundCheckStats* bound_stats, SharedBudget shared = {})
      : data_(data),
        counters_(counters),
        bound_stats_(bound_stats),
        shared_(shared) {}

  /// Executes `Read object` for `txn`. `object` is the global id (used in
  /// transaction bookkeeping and trace events), `obj` its record.
  OpResult Read(Transaction& txn, ObjectId object, ObjectRecord& obj) const;

  /// Executes `Write object, value`. Only update ETs may write.
  OpResult Write(Transaction& txn, ObjectId object, ObjectRecord& obj,
                 Value value) const;

  // -- Steps shared with the 2PL engine -------------------------------------
  /// Import admission for a read that may view inconsistency: measures d,
  /// checks OIL, and charges the worst-case excess over what `txn` already
  /// paid for `object` (the min/max rule of Sec. 3.2.1) to the shared
  /// budget, then to the transaction's read accumulator. Returns kNone and
  /// fills `measure` when admitted, else the abort reason.
  AbortReason AdmitImport(Transaction& txn, ObjectId object,
                          const ObjectRecord& obj,
                          DataManager::ImportMeasure* measure) const;

  /// Export admission for a write imposing `d` on concurrent query
  /// readers: checks OEL, then charges the shared budget and the
  /// transaction's accumulator.
  AbortReason AdmitExport(Transaction& txn, ObjectId object,
                          const ObjectRecord& obj, Inconsistency d) const;

  /// Performs an admitted read measured against `proper` with import `d`
  /// and returns the present value.
  OpResult CompleteRead(Transaction& txn, ObjectId object, ObjectRecord& obj,
                        Value proper, Inconsistency d, bool relaxed) const;

  /// Installs an admitted write's shadow value (export `d`).
  OpResult CompleteWrite(Transaction& txn, ObjectId object, ObjectRecord& obj,
                         Value value, Inconsistency d, bool relaxed) const;

 private:
  /// Charges `d` on `object`'s path to `shared` (when installed), then to
  /// `own`; refunds the shared charge when `own` rejects.
  AbortReason Charge(ShardedAccumulator* shared, InconsistencyAccumulator& own,
                     const Transaction& txn, ObjectId object,
                     Inconsistency d) const;

  DataManager* data_;
  EngineCounters* counters_;
  BoundCheckStats* bound_stats_;
  SharedBudget shared_;
};

}  // namespace esr

#endif  // ESR_TXN_OP_KERNEL_H_
