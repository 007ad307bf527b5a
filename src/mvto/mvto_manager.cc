#include "mvto/mvto_manager.h"

#include <string>

#include "common/logging.h"
#include "obs/profile.h"

namespace esr {

MvtoManager::MvtoManager(const ObjectStoreOptions& store_options,
                         const GroupSchema* schema, MetricRegistry* metrics)
    : schema_(schema),
      metrics_(metrics),
      store_(store_options),
      counters_(metrics) {
  ESR_CHECK(schema_ != nullptr);
  ESR_CHECK(metrics_ != nullptr);
}

TxnId MvtoManager::Begin(TxnType type, Timestamp ts,
                         const BoundSpec& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  const TxnId id = next_txn_id_++;
  auto [t, inserted] = transactions_.TryEmplace(
      id, Transaction(id, type, ts, schema_, bounds));
  // Bounds are ignored: no access-set pre-sizing, no headroom tracker.
  counters_.RecordBegin(*t, 0, nullptr);
  return id;
}

OpResult MvtoManager::Read(TxnId txn, ObjectId object) {
  std::lock_guard<std::mutex> lock(mu_);
  Transaction& t = GetActive(txn);
  Probe op(SpanKind::kOp, txn, t.ts().site, object, t.trace_span());
  VersionChain& chain = store_.Get(object);
  const VersionChain::ReadResult r = chain.Read(t.ts(), t.id());
  switch (r.status) {
    case VersionChain::ReadStatus::kOk: {
      t.ObserveValue(object, r.value);
      t.CountOp();
      counters_.op_read->Increment();
      ESR_TRACE_EVENT(TraceEvent::Op(TraceEventType::kRead, t.id(),
                                     t.ts().site, object));
      return OpResult::Ok(r.value, 0.0, /*was_relaxed=*/false);
    }
    case VersionChain::ReadStatus::kWaitForWriter:
      return counters_.RecordWait(t, object, r.writer);
    case VersionChain::ReadStatus::kTooOld:
      return AbortOp(t, AbortReason::kHistoryExhausted);
  }
  ESR_LOG(kFatal) << "unreachable MVTO read status";
  return OpResult::Abort(AbortReason::kNone);
}

OpResult MvtoManager::Write(TxnId txn, ObjectId object, Value value) {
  std::lock_guard<std::mutex> lock(mu_);
  Transaction& t = GetActive(txn);
  ESR_CHECK(t.type() == TxnType::kUpdate)
      << "query ETs are read-only; Write from txn " << t.id();
  Probe op(SpanKind::kOp, txn, t.ts().site, object, t.trace_span());
  VersionChain& chain = store_.Get(object);
  const VersionChain::WriteResult r = chain.Write(t.ts(), t.id(), value);
  switch (r.status) {
    case VersionChain::WriteStatus::kOk: {
      t.NotePendingWrite(object);
      t.CountOp();
      counters_.op_write->Increment();
      ESR_TRACE_EVENT(TraceEvent::Op(TraceEventType::kWrite, t.id(),
                                     t.ts().site, object));
      return OpResult::Ok(value, 0.0, /*was_relaxed=*/false);
    }
    case VersionChain::WriteStatus::kWaitForWriter:
      return counters_.RecordWait(t, object, r.conflict);
    case VersionChain::WriteStatus::kReadByNewer:
      return AbortOp(t, AbortReason::kLateWrite);
    case VersionChain::WriteStatus::kTooOld:
      return AbortOp(t, AbortReason::kHistoryExhausted);
  }
  ESR_LOG(kFatal) << "unreachable MVTO write status";
  return OpResult::Abort(AbortReason::kNone);
}

Status MvtoManager::Commit(TxnId txn) {
  return Finish(txn, AbortReason::kNone);
}

Status MvtoManager::Abort(TxnId txn) {
  return Finish(txn, AbortReason::kUserRequested);
}

Status MvtoManager::Finish(TxnId txn, AbortReason reason) {
  std::lock_guard<std::mutex> lock(mu_);
  Transaction* t = transactions_.Find(txn);
  if (t == nullptr) {
    return Status::FailedPrecondition("transaction " + std::to_string(txn) +
                                      " is not active");
  }
  Probe commit(SpanKind::kCommit, txn, t->ts().site, 0, t->trace_span());
  Teardown(*t, reason);
  return Status::OK();
}

bool MvtoManager::IsActive(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  return transactions_.Contains(txn);
}

const Transaction* MvtoManager::Find(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  return transactions_.Find(txn);
}

size_t MvtoManager::num_active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transactions_.size();
}

Transaction& MvtoManager::GetActive(TxnId txn) {
  Transaction* t = transactions_.Find(txn);
  ESR_CHECK(t != nullptr)
      << "operation on unknown/finished transaction " << txn;
  return *t;
}

OpResult MvtoManager::AbortOp(Transaction& txn, AbortReason reason) {
  Teardown(txn, reason);
  return OpResult::Abort(reason);
}

void MvtoManager::Teardown(Transaction& txn, AbortReason reason) {
  for (const ObjectId object : txn.pending_writes()) {
    if (reason == AbortReason::kNone) {
      store_.Get(object).CommitVersions(txn.id());
    } else {
      store_.Get(object).AbortVersions(txn.id());
    }
  }
  counters_.RecordFinish(txn, reason);
  // Last touch of `txn`: backward-shift erase moves neighbors and leaves
  // the reference dangling.
  transactions_.Erase(txn.id());
}

}  // namespace esr
