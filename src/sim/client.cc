#include "sim/client.h"

#include "common/logging.h"
#include "obs/profile.h"
#include "replication/replicated_database.h"

namespace esr {

ClientStats& ClientStats::operator-=(const ClientStats& other) {
  committed -= other.committed;
  committed_query -= other.committed_query;
  committed_update -= other.committed_update;
  aborts -= other.aborts;
  ops_executed -= other.ops_executed;
  ops_query -= other.ops_query;
  ops_update -= other.ops_update;
  inconsistent_ops -= other.inconsistent_ops;
  waits -= other.waits;
  import_total -= other.import_total;
  export_total -= other.export_total;
  txn_latency_total_us -= other.txn_latency_total_us;
  op_responses -= other.op_responses;
  op_latency_total_us -= other.op_latency_total_us;
  return *this;
}

SimClient::SimClient(SiteId site, Server* server, EventQueue* queue,
                     LatencyModel* latency, WorkloadGenerator generator,
                     SkewedClock clock, ReplicatedDatabase* replication)
    : site_(site),
      server_(server),
      replication_(replication),
      queue_(queue),
      latency_(latency),
      generator_(std::move(generator)),
      clock_(clock),
      ts_gen_(site) {}

void SimClient::Start(SimTime start_at) {
  queue_->ScheduleAt(start_at, [this] { SubmitNextTransaction(); });
}

void SimClient::SubmitNextTransaction() {
  generator_.Next(&script_);
  first_submit_at_ = queue_->now();
  BeginCurrentTransaction();
}

void SimClient::BeginCurrentTransaction() {
  // The timestamp is assigned when the transaction begins, from the
  // site's corrected clock (Sec. 6).
  const Timestamp ts = ts_gen_.Next(clock_.Read(queue_->now()));
  op_index_ = 0;
  read_results_.clear();
  attempt_inconsistency_ = 0.0;
  // The BEGIN RPC carries only the type and the bound declaration:
  // request leg to the server, Begin executes there, response leg back.
  const SimTime ctrl = latency_->SampleControlRpc(site_);
  const SimTime request_travel = ctrl / 2;
  const SimTime response_travel = ctrl - request_travel;
  queue_->ScheduleAfter(request_travel, [this, ts, response_travel] {
    ShardedEngine* const to_engine = server_->sharded_engine();
    if (script_.type == TxnType::kUpdate &&
        script_.update_import_limit > 0 && to_engine != nullptr) {
      // The Sec. 1 generalization: update ETs with an import budget.
      txn_ = to_engine->BeginUpdateWithImport(
          ts, script_.bounds,
          BoundSpec::TransactionOnly(script_.update_import_limit));
    } else {
      txn_ = server_->Begin(script_.type, ts, script_.bounds);
    }
    // The engine opened the transaction's lifetime span during Begin;
    // this client's RPC spans parent to it across callbacks. Spans open
    // only under capture, so otherwise skip the registry lookup.
    txn_span_ = 0;
    if (GlobalTraceCapturing()) {
      const Transaction* t = server_->engine().Find(txn_);
      if (t != nullptr) txn_span_ = t->trace_span();
    }
    queue_->ScheduleAfter(response_travel, [this] { IssueCurrentOp(); });
  });
}

void SimClient::IssueCurrentOp() {
  if (op_index_ >= script_.ops.size()) {
    IssueCommit();
    return;
  }
  // Client-observed RPC leg: request travel + CPU queueing + service +
  // response travel; closed when the response lands in HandleOpResult.
  rpc_span_ = BeginSpan(SpanKind::kRpc, txn_, site_,
                        script_.ops[op_index_].object, txn_span_);
  op_issued_at_ = queue_->now();
  const SimTime rpc = latency_->SampleOpRpc(site_);
  const SimTime request_travel = rpc / 2;
  const SimTime response_travel = rpc - request_travel;
  queue_->ScheduleAfter(request_travel, [this, response_travel] {
    // Request has arrived at the server; contend for its CPU.
    const SimTime cpu_done = latency_->ReserveServerCpu(queue_->now());
    queue_->ScheduleAt(cpu_done, [this, response_travel] {
      ExecuteOpAtServer(response_travel);
    });
  });
}

void SimClient::ExecuteOpAtServer(SimTime response_travel) {
  const ScriptOp& op = script_.ops[op_index_];
  {
    // Re-establish the in-flight RPC span as this callback's context so
    // the engine's op span (and the bound walk under it) parent to it.
    ScopedSpanParent rpc(rpc_span_);
    if (op.kind == ScriptOp::Kind::kRead) {
      op_result_ = server_->Read(txn_, op.object);
    } else {
      op_result_ = server_->Write(txn_, op.object, WriteValueFor(op));
    }
  }
  queue_->ScheduleAfter(response_travel, [this] { HandleOpResult(); });
}

void SimClient::HandleOpResult() {
  const OpResult& result = op_result_;
  // Response delivered: the RPC leg is over regardless of the verdict.
  EndSpan(SpanKind::kRpc, rpc_span_, txn_, site_);
  rpc_span_ = 0;
  ++stats_.op_responses;
  stats_.op_latency_total_us +=
      static_cast<int64_t>(queue_->now() - op_issued_at_);
  switch (result.kind) {
    case OpResult::Kind::kOk: {
      ++stats_.ops_executed;
      if (script_.type == TxnType::kQuery) {
        ++stats_.ops_query;
      } else {
        ++stats_.ops_update;
      }
      if (result.relaxed && result.inconsistency > 0.0) {
        ++stats_.inconsistent_ops;
      }
      attempt_inconsistency_ += result.inconsistency;
      if (script_.ops[op_index_].kind == ScriptOp::Kind::kRead) {
        read_results_.push_back(result.value);
      }
      ++op_index_;
      IssueCurrentOp();
      return;
    }
    case OpResult::Kind::kWait: {
      ++stats_.waits;
      queue_->ScheduleAfter(latency_->WaitRetryDelay(),
                            [this] { IssueCurrentOp(); });
      return;
    }
    case OpResult::Kind::kAbort: {
      // The server already released everything; resubmit the same
      // transaction with a new timestamp after a short turnaround.
      ++stats_.aborts;
      txn_ = kInvalidTxnId;
      txn_span_ = 0;
      queue_->ScheduleAfter(latency_->RestartDelay(),
                            [this] { BeginCurrentTransaction(); });
      return;
    }
  }
  ESR_LOG(kFatal) << "unreachable op result kind";
}

void SimClient::IssueCommit() {
  const uint64_t commit_rpc =
      BeginSpan(SpanKind::kRpc, txn_, site_, 0, txn_span_);
  const SimTime ctrl = latency_->SampleControlRpc(site_);
  const SimTime request_travel = ctrl / 2;
  const SimTime response_travel = ctrl - request_travel;
  queue_->ScheduleAfter(request_travel, [this, commit_rpc, response_travel] {
    {
      ScopedSpanParent rpc(commit_rpc);
      const Status status = replication_ != nullptr
                                ? replication_->Commit(txn_, queue_->now())
                                : server_->Commit(txn_);
      ESR_CHECK(status.ok()) << status.ToString();
    }
    queue_->ScheduleAfter(response_travel, [this, commit_rpc] {
      // Commit acknowledgement landed: the transaction is over from the
      // client's point of view, so stats and latency close here.
      EndSpan(SpanKind::kRpc, commit_rpc, txn_, site_);
      ++stats_.committed;
      if (script_.type == TxnType::kQuery) {
        ++stats_.committed_query;
        stats_.import_total += attempt_inconsistency_;
      } else {
        ++stats_.committed_update;
        stats_.export_total += attempt_inconsistency_;
      }
      const SimTime latency_us = queue_->now() - first_submit_at_;
      stats_.txn_latency_total_us += latency_us;
      latency_ms_.Record(static_cast<double>(latency_us) / 1000.0);
      txn_ = kInvalidTxnId;
      txn_span_ = 0;
      SubmitNextTransaction();
    });
  });
}

Value SimClient::WriteValueFor(const ScriptOp& op) const {
  ESR_CHECK(op.source_read >= 0 &&
            static_cast<size_t>(op.source_read) < read_results_.size())
      << "write sourced from read " << op.source_read << " but only "
      << read_results_.size() << " reads completed";
  const WorkloadSpec& spec = generator_.spec();
  return ApplyDeltaReflecting(read_results_[static_cast<size_t>(
                                  op.source_read)],
                              op.delta, spec.min_value, spec.max_value);
}

}  // namespace esr
