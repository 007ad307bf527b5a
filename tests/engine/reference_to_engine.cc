#include "engine/reference_to_engine.h"

#include <string>

#include "common/logging.h"
#include "obs/profile.h"

namespace esr {
namespace testing {

ReferenceToEngine::ReferenceToEngine(ObjectStore* store,
                                     const GroupSchema* schema,
                                     MetricRegistry* metrics)
    : schema_(schema),
      data_manager_(store, DivergenceOptions{}),
      bound_stats_(metrics),
      counters_(metrics),
      kernel_(&data_manager_, &counters_, &bound_stats_) {}

TxnId ReferenceToEngine::Begin(TxnType type, Timestamp ts,
                               const BoundSpec& bounds) {
  const TxnId id = next_txn_id_++;
  auto txn = std::make_unique<Transaction>(id, type, ts, schema_, bounds);
  counters_.RecordBegin(*txn, /*access_hint=*/0, /*tracker=*/nullptr);
  transactions_.emplace(id, std::move(txn));
  return id;
}

OpResult ReferenceToEngine::Read(TxnId txn, ObjectId object) {
  return Execute(txn, object, /*is_write=*/false, 0);
}

OpResult ReferenceToEngine::Write(TxnId txn, ObjectId object, Value value) {
  return Execute(txn, object, /*is_write=*/true, value);
}

OpResult ReferenceToEngine::Execute(TxnId txn, ObjectId object,
                                    bool is_write, Value value) {
  auto it = transactions_.find(txn);
  ESR_CHECK(it != transactions_.end())
      << "operation on unknown/finished transaction " << txn;
  Transaction& t = *it->second;
  OpResult r;
  {
    Probe op(SpanKind::kOp, txn, t.ts().site, object, t.trace_span());
    ObjectRecord& obj = data_manager_.store().Get(object);
    r = is_write ? kernel_.Write(t, object, obj, value)
                 : kernel_.Read(t, object, obj);
  }
  if (r.kind == OpResult::Kind::kAbort) Teardown(t, r.abort_reason);
  return r;
}

Status ReferenceToEngine::Commit(TxnId txn) {
  return Finish(txn, AbortReason::kNone);
}

Status ReferenceToEngine::Abort(TxnId txn) {
  return Finish(txn, AbortReason::kUserRequested);
}

Status ReferenceToEngine::Finish(TxnId txn, AbortReason reason) {
  auto it = transactions_.find(txn);
  if (it == transactions_.end()) {
    return Status::FailedPrecondition("transaction " + std::to_string(txn) +
                                      " is not active");
  }
  Transaction& t = *it->second;
  Probe commit(SpanKind::kCommit, txn, t.ts().site, 0, t.trace_span());
  Teardown(t, reason);
  return Status::OK();
}

bool ReferenceToEngine::IsActive(TxnId txn) const {
  return transactions_.count(txn) != 0;
}

const Transaction* ReferenceToEngine::Find(TxnId txn) const {
  auto it = transactions_.find(txn);
  return it == transactions_.end() ? nullptr : it->second.get();
}

void ReferenceToEngine::Teardown(Transaction& txn, AbortReason reason) {
  ObjectStore& store = data_manager_.store();
  for (const ObjectId object : txn.pending_writes()) {
    if (reason == AbortReason::kNone) {
      store.Get(object).CommitWrite(txn.id());
    } else {
      // Shadow-value recovery: restore pre-images (Sec. 6).
      store.Get(object).AbortWrite(txn.id());
    }
  }
  for (const ObjectId object : txn.registered_reads()) {
    store.Get(object).UnregisterQueryReader(txn.id());
  }
  counters_.RecordFinish(txn, reason);
  transactions_.erase(txn.id());
}

}  // namespace testing
}  // namespace esr
