#include "twopl/twopl_manager.h"

#include <string>

#include "common/logging.h"
#include "obs/profile.h"

namespace esr {

TwoPLManager::TwoPLManager(ObjectStore* store, const GroupSchema* schema,
                           MetricRegistry* metrics,
                           const DivergenceOptions& divergence)
    : schema_(schema),
      metrics_(metrics),
      data_manager_(store, divergence),
      bound_stats_(metrics),
      counters_(metrics),
      kernel_(&data_manager_, &counters_, &bound_stats_) {
  ESR_CHECK(schema_ != nullptr);
  ESR_CHECK(metrics_ != nullptr);
  // Logical S/X conflicts surface in the profiler's blocker tables even
  // though the table itself never blocks (client-driven retries).
  locks_.set_contention_site(GlobalProfiler().site("twopl.lock_table"));
}

TxnId TwoPLManager::Begin(TxnType type, Timestamp ts,
                          const BoundSpec& bounds) {
  Probe probe(ProfilePhase::kValidate);
  std::lock_guard<ProfiledMutex> lock(mu_);
  const TxnId id = next_txn_id_++;
  auto [t, inserted] = transactions_.TryEmplace(
      id, Transaction(id, type, ts, schema_, bounds));
  counters_.RecordBegin(*t, access_hint_, headroom_tracker_);
  return id;
}

OpResult TwoPLManager::Read(TxnId txn, ObjectId object) {
  return Execute(txn, object, /*is_write=*/false, 0);
}

OpResult TwoPLManager::Write(TxnId txn, ObjectId object, Value value) {
  return Execute(txn, object, /*is_write=*/true, value);
}

OpResult TwoPLManager::Execute(TxnId txn, ObjectId object, bool is_write,
                               Value value) {
  Probe probe(ProfilePhase::kValidate);
  std::lock_guard<ProfiledMutex> lock(mu_);
  mu_.set_holder(txn);
  Transaction& t = GetActive(txn);
  probe.OpenSpan(SpanKind::kOp, txn, t.ts().site, object, t.trace_span());
  return is_write ? DoWrite(t, object, value) : DoRead(t, object);
}

bool TwoPLManager::HandleGrant(Transaction& txn, ObjectId object,
                               const LockTable::Grant& grant,
                               OpResult* result) {
  switch (grant.outcome) {
    case LockOutcome::kGranted:
      return true;
    case LockOutcome::kWait:
      *result = counters_.RecordWait(txn, object, grant.conflict);
      return false;
    case LockOutcome::kDie:
      *result = AbortOp(txn, AbortReason::kDeadlockVictim);
      return false;
  }
  return false;
}

OpResult TwoPLManager::DoRead(Transaction& txn, ObjectId object) {
  ObjectRecord& obj = data_manager_.store().Get(object);

  if (txn.is_query() && txn.esr_enabled()) {
    // Divergence-controlled lock-free read: see the present (possibly
    // dirty) value, admitted within the hierarchical bounds.
    DataManager::ImportMeasure measure;
    const AbortReason reason = kernel_.AdmitImport(txn, object, obj, &measure);
    if (reason != AbortReason::kNone) return AbortOp(txn, reason);
    const bool relaxed = obj.has_uncommitted_write() || measure.d > 0.0;
    return kernel_.CompleteRead(txn, object, obj, measure.proper, measure.d,
                                relaxed);
  }

  // Locked read (update ETs and SR queries).
  OpResult result;
  const LockTable::Grant grant = locks_.AcquireShared(
      object, LockTable::Request{txn.id(), txn.ts()});
  if (!HandleGrant(txn, object, grant, &result)) return result;

  const Value present = obj.value();
  txn.ObserveValue(object, present);
  txn.CountOp();
  counters_.op_read->Increment();
  ESR_TRACE_EVENT(TraceEvent::Op(TraceEventType::kRead, txn.id(),
                                 txn.ts().site, object));
  return OpResult::Ok(present, 0.0, /*was_relaxed=*/false);
}

OpResult TwoPLManager::DoWrite(Transaction& txn, ObjectId object,
                               Value value) {
  ESR_CHECK(txn.type() == TxnType::kUpdate)
      << "query ETs are read-only; Write from txn " << txn.id();
  ObjectRecord& obj = data_manager_.store().Get(object);

  OpResult result;
  const LockTable::Grant grant = locks_.AcquireExclusive(
      object, LockTable::Request{txn.id(), txn.ts()});
  if (!HandleGrant(txn, object, grant, &result)) return result;

  // Export control against lock-free ESR query readers (the X lock has
  // already excluded locked readers).
  const Inconsistency d =
      data_manager_.ExportInconsistency(obj, txn.View(), value);
  const bool relaxed = !obj.query_readers().empty();
  if (d > 0.0 || relaxed) {
    const AbortReason reason = kernel_.AdmitExport(txn, object, obj, d);
    if (reason != AbortReason::kNone) return AbortOp(txn, reason);
  }
  return kernel_.CompleteWrite(txn, object, obj, value, d, relaxed);
}

Status TwoPLManager::Commit(TxnId txn) {
  return Finish(txn, AbortReason::kNone);
}

Status TwoPLManager::Abort(TxnId txn) {
  return Finish(txn, AbortReason::kUserRequested);
}

Status TwoPLManager::Finish(TxnId txn, AbortReason reason) {
  Probe probe(ProfilePhase::kCommit);
  std::lock_guard<ProfiledMutex> lock(mu_);
  mu_.set_holder(txn);
  Transaction* t = transactions_.Find(txn);
  if (t == nullptr) {
    return Status::FailedPrecondition("transaction " + std::to_string(txn) +
                                      " is not active");
  }
  probe.OpenSpan(SpanKind::kCommit, txn, t->ts().site, 0, t->trace_span());
  Teardown(*t, reason);
  return Status::OK();
}

bool TwoPLManager::IsActive(TxnId txn) const {
  std::lock_guard<ProfiledMutex> lock(mu_);
  return transactions_.Contains(txn);
}

const Transaction* TwoPLManager::Find(TxnId txn) const {
  std::lock_guard<ProfiledMutex> lock(mu_);
  return transactions_.Find(txn);
}

size_t TwoPLManager::num_active() const {
  std::lock_guard<ProfiledMutex> lock(mu_);
  return transactions_.size();
}

Transaction& TwoPLManager::GetActive(TxnId txn) {
  Transaction* t = transactions_.Find(txn);
  ESR_CHECK(t != nullptr)
      << "operation on unknown/finished transaction " << txn;
  return *t;
}

OpResult TwoPLManager::AbortOp(Transaction& txn, AbortReason reason) {
  Teardown(txn, reason);
  return OpResult::Abort(reason);
}

void TwoPLManager::Teardown(Transaction& txn, AbortReason reason) {
  ObjectStore& store = data_manager_.store();
  for (const ObjectId object : txn.pending_writes()) {
    if (reason == AbortReason::kNone) {
      store.Get(object).CommitWrite(txn.id());
    } else {
      store.Get(object).AbortWrite(txn.id());
    }
  }
  for (const ObjectId object : txn.registered_reads()) {
    store.Get(object).UnregisterQueryReader(txn.id());
  }
  counters_.RecordFinish(txn, reason);
  locks_.ReleaseAll(txn.id());
  // Last touch of `txn`: backward-shift erase moves neighbors and leaves
  // the reference dangling.
  transactions_.Erase(txn.id());
}

}  // namespace esr
