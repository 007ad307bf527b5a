#include "txn/op_kernel.h"

#include <algorithm>

#include "common/logging.h"
#include "engine/sharded/sharded_accumulator.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace esr {

OpResult OpKernel::Read(Transaction& txn, ObjectId object,
                        ObjectRecord& obj) const {
  switch (DecideRead(txn.View(), obj)) {
    case ReadDecision::kWait:
      return counters_->RecordWait(txn, object, obj.uncommitted_writer());

    case ReadDecision::kAbortLate:
      return OpResult::Abort(AbortReason::kLateRead);

    case ReadDecision::kProceedConsistent:
      // For a consistent read the proper value IS the present value.
      return CompleteRead(txn, object, obj, obj.value(), 0.0,
                          /*relaxed=*/false);

    case ReadDecision::kRelaxLateRead:
    case ReadDecision::kRelaxUncommitted: {
      // ESR query ETs (Fig. 3 cases 1 and 2), or update ETs with an
      // import budget (Sec. 1 generalization).
      DataManager::ImportMeasure measure;
      const AbortReason reason = AdmitImport(txn, object, obj, &measure);
      if (reason != AbortReason::kNone) return OpResult::Abort(reason);
      return CompleteRead(txn, object, obj, measure.proper, measure.d,
                          /*relaxed=*/true);
    }
  }
  ESR_LOG(kFatal) << "unreachable read decision";
  return OpResult::Abort(AbortReason::kNone);
}

OpResult OpKernel::Write(Transaction& txn, ObjectId object, ObjectRecord& obj,
                         Value value) const {
  ESR_CHECK(txn.type() == TxnType::kUpdate)
      << "query ETs are read-only; Write from txn " << txn.id();
  switch (DecideWrite(txn.View(), obj)) {
    case WriteDecision::kWait:
      return counters_->RecordWait(txn, object, obj.uncommitted_writer());

    case WriteDecision::kAbortLateRead:
    case WriteDecision::kAbortLateWrite:
      return OpResult::Abort(AbortReason::kLateWrite);

    case WriteDecision::kProceedConsistent:
      return CompleteWrite(txn, object, obj, value, 0.0, /*relaxed=*/false);

    case WriteDecision::kRelaxLateWrite: {
      // Fig. 3 case 3: the write is older than a query's read of x.
      const Inconsistency d =
          data_->ExportInconsistency(obj, txn.View(), value);
      const AbortReason reason = AdmitExport(txn, object, obj, d);
      if (reason != AbortReason::kNone) return OpResult::Abort(reason);
      return CompleteWrite(txn, object, obj, value, d, /*relaxed=*/true);
    }
  }
  ESR_LOG(kFatal) << "unreachable write decision";
  return OpResult::Abort(AbortReason::kNone);
}

AbortReason OpKernel::AdmitImport(Transaction& txn, ObjectId object,
                                  const ObjectRecord& obj,
                                  DataManager::ImportMeasure* measure) const {
  auto measure_or = data_->ImportInconsistency(obj, txn.ts());
  if (!measure_or.ok()) return AbortReason::kHistoryExhausted;
  *measure = *measure_or;
  // Object-level check: d <= OIL_x (Sec. 3.2.2).
  if (!data_->WithinObjectImportLimit(obj, measure->d)) {
    return AbortReason::kObjectBound;
  }
  // Repeated reads of one object charge only the worst-case excess over
  // what this transaction already paid for it, not the full d again.
  const Inconsistency increment =
      std::max(0.0, measure->d - txn.ChargedFor(object));
  const AbortReason reason = Charge(shared_.import_budget,
                                    txn.read_accumulator(), txn, object,
                                    increment);
  if (reason == AbortReason::kNone) txn.NoteCharged(object, measure->d);
  return reason;
}

AbortReason OpKernel::AdmitExport(Transaction& txn, ObjectId object,
                                  const ObjectRecord& obj,
                                  Inconsistency d) const {
  if (!data_->WithinObjectExportLimit(obj, d)) {
    return AbortReason::kObjectBound;
  }
  return Charge(shared_.export_budget, txn.accumulator(), txn, object, d);
}

AbortReason OpKernel::Charge(ShardedAccumulator* shared,
                             InconsistencyAccumulator& own,
                             const Transaction& txn, ObjectId object,
                             Inconsistency d) const {
  // Engine-wide budget first (lock-free, never over-admits), then the
  // transaction's own declaration bottom-up (Sec. 5.3.1) — the walk that
  // emits the BoundCheck events certification replays.
  if (shared != nullptr) {
    const ChargeResult r = shared->TryCharge(object, d, shared_.shard);
    if (!r.admitted) return BoundAbortReason(r.violated_group);
  }
  const ChargeResult charge =
      own.TryCharge(object, d, bound_stats_, txn.id(), txn.ts().site);
  if (charge.admitted) return AbortReason::kNone;
  if (shared != nullptr) shared->UnchargePath(object, d);
  return BoundAbortReason(charge.violated_group);
}

OpResult OpKernel::CompleteRead(Transaction& txn, ObjectId object,
                                ObjectRecord& obj, Value proper,
                                Inconsistency d, bool relaxed) const {
  const Value present = obj.value();
  if (txn.is_query()) {
    obj.NoteQueryRead(txn.ts());
    if (obj.RegisterQueryReader(txn.id(), txn.ts(), proper)) {
      txn.NoteRegisteredRead(object);
    }
  } else {
    obj.NoteUpdateRead(txn.ts());
  }
  txn.ObserveValue(object, present);
  txn.CountOp();
  counters_->op_read->Increment();
  ESR_TRACE_EVENT(
      TraceEvent::Op(TraceEventType::kRead, txn.id(), txn.ts().site, object));
  if (d > 0.0) {
    txn.CountInconsistentOp();
    counters_->op_inconsistent_ok->Increment();
    ESR_TRACE_EVENT(
        TraceEvent::ImportCharge(txn.id(), txn.ts().site, object, d));
  }
  return OpResult::Ok(present, d, relaxed);
}

OpResult OpKernel::CompleteWrite(Transaction& txn, ObjectId object,
                                 ObjectRecord& obj, Value value,
                                 Inconsistency d, bool relaxed) const {
  {
    Probe apply(ProfilePhase::kApply);
    obj.ApplyWrite(txn.id(), txn.ts(), value);
  }
  txn.NotePendingWrite(object);
  txn.CountOp();
  counters_->op_write->Increment();
  ESR_TRACE_EVENT(
      TraceEvent::Op(TraceEventType::kWrite, txn.id(), txn.ts().site, object));
  if (d > 0.0) {
    txn.CountInconsistentOp();
    counters_->op_inconsistent_ok->Increment();
  }
  return OpResult::Ok(value, d, relaxed);
}

}  // namespace esr
