#include "api/database.h"

#include <chrono>
#include <thread>

#include "common/logging.h"
#include "mvto/mvto_manager.h"

namespace esr {
namespace {

// How long a session sleeps before retrying an operation that was told to
// wait for an uncommitted writer (in-process polling analogue of the
// prototype's client-side retry over RPC).
constexpr std::chrono::microseconds kWaitPoll{100};
// Wait retries per op before giving up on the attempt and restarting the
// transaction; guards against a blocker that never resolves (e.g. a
// stalled client thread).
constexpr int kMaxWaitRetries = 20'000;

}  // namespace

Database::Database(const ServerOptions& options) : server_(options) {}

Status Database::LoadValue(ObjectId object, Value value) {
  if (!server_.ContainsObject(object)) {
    return Status::NotFound("object " + std::to_string(object));
  }
  if (server_.options().engine == EngineKind::kMultiversion) {
    // The MVTO engine keeps its own version store; model the load as a
    // committed system transaction older than everything.
    auto& manager = static_cast<MvtoManager&>(server_.engine());
    VersionChain& chain = manager.store().Get(object);
    // Just after the seed version's timestamp, still older than any real
    // transaction timestamp.
    const Timestamp load_ts{INT64_MIN + 1, 0};
    const auto w = chain.Write(load_ts, /*writer=*/UINT64_MAX, value);
    if (w.status != VersionChain::WriteStatus::kOk) {
      return Status::FailedPrecondition(
          "LoadValue after transactions already ran");
    }
    chain.CommitVersions(UINT64_MAX);
    return Status::OK();
  }
  ObjectRecord& rec = server_.object(object);
  ESR_CHECK(!rec.has_uncommitted_write())
      << "LoadValue during active transactions";
  // Model the load as a committed system write older than everything.
  rec.ApplyWrite(/*txn=*/UINT64_MAX, Timestamp::Min(), value);
  rec.CommitWrite(/*txn=*/UINT64_MAX);
  return Status::OK();
}

Result<Value> Database::PeekValue(ObjectId object) const {
  if (!server_.ContainsObject(object)) {
    return Status::NotFound("object " + std::to_string(object));
  }
  Server& server = const_cast<Server&>(server_);
  if (server.options().engine == EngineKind::kMultiversion) {
    return static_cast<MvtoManager&>(server.engine())
        .store()
        .Get(object)
        .LatestCommittedValue();
  }
  return server.object(object).value();
}

Session Database::CreateSession(SiteId site) {
  return Session(&server_, site);
}

OpResult TxnHandle::Read(ObjectId object) {
  ESR_CHECK(valid());
  const OpResult result = server_->Read(txn_, object);
  // A kAbort response means the server already tore the transaction down.
  if (result.kind == OpResult::Kind::kAbort) txn_ = kInvalidTxnId;
  return result;
}

OpResult TxnHandle::Write(ObjectId object, Value value) {
  ESR_CHECK(valid());
  const OpResult result = server_->Write(txn_, object, value);
  if (result.kind == OpResult::Kind::kAbort) txn_ = kInvalidTxnId;
  return result;
}

Status TxnHandle::Commit() {
  ESR_CHECK(valid());
  const Status status = server_->Commit(txn_);
  txn_ = kInvalidTxnId;
  return status;
}

Status TxnHandle::Abort() {
  ESR_CHECK(valid());
  const Status status = server_->Abort(txn_);
  txn_ = kInvalidTxnId;
  return status;
}

Session::Session(Server* server, SiteId site)
    : server_(server), ts_gen_(site) {
  ESR_CHECK(server_ != nullptr);
}

int64_t Session::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TxnHandle Session::Begin(TxnType type, BoundSpec bounds) {
  const Timestamp ts = ts_gen_.Next(NowMicros());
  const TxnId id = server_->Begin(type, ts, std::move(bounds));
  return TxnHandle(server_, id, ts);
}

Result<AggregateQueryResult> Session::AggregateQuery(
    const std::vector<ObjectId>& objects, AggregateKind kind,
    BoundSpec bounds, int max_restarts) {
  if (objects.empty()) {
    return Status::InvalidArgument("aggregate query over zero objects");
  }
  Status last_abort = Status::OK();
  for (int attempt = 0; attempt <= max_restarts; ++attempt) {
    TxnHandle txn = Begin(TxnType::kQuery, bounds);
    bool aborted = false;
    for (const ObjectId object : objects) {
      int wait_spins = 0;
      OpResult op = txn.Read(object);
      while (op.kind == OpResult::Kind::kWait) {
        if (++wait_spins > kMaxWaitRetries) break;
        std::this_thread::sleep_for(kWaitPoll);
        op = txn.Read(object);
      }
      if (op.kind == OpResult::Kind::kWait) {
        // Blocker never resolved; give up on this attempt.
        ESR_RETURN_NOT_OK(txn.Abort());
        aborted = true;
        last_abort = Status::Aborted("wait retries exhausted");
        break;
      }
      if (op.kind == OpResult::Kind::kAbort) {
        aborted = true;
        last_abort = Status::Aborted(
            std::string("server abort: ") +
            AbortReasonToString(op.abort_reason));
        break;
      }
    }
    if (aborted) continue;

    // Evaluate while the transaction is still active so the observed
    // min/max ranges are available.
    const Transaction* state = server_->engine().Find(txn.id());
    ESR_CHECK(state != nullptr);
    auto outcome_or = EvaluateAggregate(*state, objects, kind);
    if (!outcome_or.ok()) {
      ESR_RETURN_NOT_OK(txn.Abort());
      return outcome_or.status();
    }
    // Aggregation-point admission (Sec. 5.3.2) for non-sum aggregates;
    // sum is already bounded dynamically, read by read.
    if (kind != AggregateKind::kSum) {
      const Status admissible = CheckAggregateAdmissible(*state, *outcome_or);
      if (!admissible.ok()) {
        ESR_RETURN_NOT_OK(txn.Abort());
        last_abort = admissible;
        continue;
      }
    }
    AggregateQueryResult result;
    result.outcome = *outcome_or;
    result.imported = state->accumulator().total();
    result.retries = attempt;
    ESR_RETURN_NOT_OK(txn.Commit());
    return result;
  }
  return Status::Aborted("query exceeded " + std::to_string(max_restarts) +
                         " restarts; last: " + last_abort.ToString());
}

Status Session::RunUpdate(const std::function<Status(TxnHandle&)>& body,
                          BoundSpec bounds, int max_restarts) {
  for (int attempt = 0; attempt <= max_restarts; ++attempt) {
    TxnHandle txn = Begin(TxnType::kUpdate, bounds);
    const Status status = body(txn);
    if (!status.ok()) {
      if (txn.valid()) ESR_RETURN_NOT_OK(txn.Abort());
      // kAborted from the body means the engine killed the attempt:
      // restart. Anything else is the caller's error: give up.
      if (status.code() == StatusCode::kAborted) continue;
      return status;
    }
    if (!txn.valid()) continue;  // body absorbed an abort
    ESR_RETURN_NOT_OK(txn.Commit());
    return Status::OK();
  }
  return Status::Aborted("update exceeded " + std::to_string(max_restarts) +
                         " restarts");
}

}  // namespace esr
