#include "sim/client.h"

#include "common/logging.h"
#include "obs/profile.h"
#include "replication/replicated_database.h"

namespace esr {

ClientStats& ClientStats::operator+=(const ClientStats& other) {
  committed += other.committed;
  committed_query += other.committed_query;
  committed_update += other.committed_update;
  aborts += other.aborts;
  ops_executed += other.ops_executed;
  ops_query += other.ops_query;
  ops_update += other.ops_update;
  inconsistent_ops += other.inconsistent_ops;
  waits += other.waits;
  import_total += other.import_total;
  export_total += other.export_total;
  txn_latency_total_us += other.txn_latency_total_us;
  op_responses += other.op_responses;
  op_latency_total_us += other.op_latency_total_us;
  return *this;
}

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
  queue_->ScheduleAt(start_at, [this] { SubmitTransaction(queue_->now()); });
}

void SimClient::SubmitTransaction(SimTime at) {
  generator_.Next(&script_);
  first_submit_at_ = at;
  SendBegin(at);
}

void SimClient::SendBegin(SimTime send_at) {
  // The timestamp is assigned when the transaction begins, from the
  // site's corrected clock (Sec. 6) as the BEGIN leaves.
  begin_ts_ = ts_gen_.Next(clock_.Read(send_at));
  op_index_ = 0;
  read_results_.clear();
  attempt_inconsistency_ = 0.0;
  // The BEGIN RPC carries only the type and the bound declaration.
  const SimTime ctrl = latency_->SampleControlRpc(site_);
  response_travel_ = ctrl - ctrl / 2;
  queue_->ScheduleAt(send_at + ctrl / 2, [this] { BeginAtServer(); });
}

void SimClient::BeginAtServer() {
  SettleLanding();
  ShardedEngine* const to_engine = server_->sharded_engine();
  if (script_.type == TxnType::kUpdate && script_.update_import_limit > 0 &&
      to_engine != nullptr) {
    // The Sec. 1 generalization: update ETs with an import budget.
    txn_ = to_engine->BeginUpdateWithImport(
        begin_ts_, script_.bounds,
        BoundSpec::TransactionOnly(script_.update_import_limit));
  } else {
    txn_ = server_->Begin(script_.type, begin_ts_, script_.bounds);
  }
  // The engine opened the transaction's lifetime span during Begin;
  // this client's RPC spans parent to it across callbacks. Spans open
  // only under capture, so otherwise skip the registry lookup.
  txn_span_ = 0;
  if (GlobalTraceCapturing()) {
    const Transaction* t = server_->engine().Find(txn_);
    if (t != nullptr) txn_span_ = t->trace_span();
  }
  // The ack carries nothing the client records: the first op leaves as
  // it lands.
  SendOp(queue_->now() + response_travel_);
}

void SimClient::SendOp(SimTime send_at) {
  if (op_index_ >= script_.ops.size()) {
    SendCommit(send_at);
    return;
  }
  sent_at_ = send_at;
  const SimTime rpc = latency_->SampleOpRpc(site_);
  response_travel_ = rpc - rpc / 2;
  queue_->ScheduleAt(send_at + rpc / 2, [this] { OpArrivesAtServer(); });
}

void SimClient::OpArrivesAtServer() {
  SettleLanding();
  // Client-observed RPC leg, from the send: request travel + CPU
  // queueing + service + response travel; it ends at the landing.
  rpc_span_ = BeginSpanAt(sent_at_, SpanKind::kRpc, txn_, site_,
                          script_.ops[op_index_].object, txn_span_);
  const SimTime cpu_done = latency_->ReserveServerCpu(queue_->now());
  queue_->ScheduleAt(cpu_done, [this] { ExecuteOpAtServer(); });
}

void SimClient::ExecuteOpAtServer() {
  const ScriptOp& op = script_.ops[op_index_];
  OpResult result;
  {
    // Re-establish the in-flight RPC span as this callback's context so
    // the engine's op span (and the bound walk under it) parent to it.
    ScopedSpanParent rpc(rpc_span_);
    if (op.kind == ScriptOp::Kind::kRead) {
      result = server_->Read(txn_, op.object);
    } else {
      result = server_->Write(txn_, op.object, WriteValueFor(op));
    }
  }
  // Everything below happens as of the response's landing.
  const SimTime landed = queue_->now() + response_travel_;
  ClientStats& delta = OpenLanding(landed, rpc_span_);
  rpc_span_ = 0;
  delta.op_responses = 1;
  delta.op_latency_total_us = static_cast<int64_t>(landed - sent_at_);
  switch (result.kind) {
    case OpResult::Kind::kOk: {
      delta.ops_executed = 1;
      if (script_.type == TxnType::kQuery) {
        delta.ops_query = 1;
      } else {
        delta.ops_update = 1;
      }
      if (result.relaxed && result.inconsistency > 0.0) {
        delta.inconsistent_ops = 1;
      }
      attempt_inconsistency_ += result.inconsistency;
      if (op.kind == ScriptOp::Kind::kRead) {
        read_results_.push_back(result.value);
      }
      ++op_index_;
      SendOp(landed);
      return;
    }
    case OpResult::Kind::kWait: {
      delta.waits = 1;
      SendOp(landed + latency_->WaitRetryDelay());
      return;
    }
    case OpResult::Kind::kAbort: {
      // The server already released everything; resubmit the same
      // transaction with a new timestamp after a short turnaround.
      delta.aborts = 1;
      txn_ = kInvalidTxnId;
      txn_span_ = 0;
      SendBegin(landed + latency_->RestartDelay());
      return;
    }
  }
  ESR_LOG(kFatal) << "unreachable op result kind";
}

void SimClient::SendCommit(SimTime send_at) {
  sent_at_ = send_at;
  const SimTime ctrl = latency_->SampleControlRpc(site_);
  response_travel_ = ctrl - ctrl / 2;
  queue_->ScheduleAt(send_at + ctrl / 2, [this] { CommitAtServer(); });
}

void SimClient::CommitAtServer() {
  SettleLanding();
  const uint64_t commit_rpc =
      BeginSpanAt(sent_at_, SpanKind::kRpc, txn_, site_, 0, txn_span_);
  {
    ScopedSpanParent rpc(commit_rpc);
    const Status status = replication_ != nullptr
                              ? replication_->Commit(txn_, queue_->now())
                              : server_->Commit(txn_);
    ESR_CHECK(status.ok()) << status.ToString();
  }
  // The acknowledgement lands at `landed`: the transaction is over from
  // the client's point of view there, so stats and latency close as of
  // then, and the next transaction is submitted then.
  const SimTime landed = queue_->now() + response_travel_;
  ClientStats& delta = OpenLanding(landed, commit_rpc);
  delta.committed = 1;
  if (script_.type == TxnType::kQuery) {
    delta.committed_query = 1;
    delta.import_total = attempt_inconsistency_;
  } else {
    delta.committed_update = 1;
    delta.export_total = attempt_inconsistency_;
  }
  const SimTime latency_us = landed - first_submit_at_;
  delta.txn_latency_total_us = latency_us;
  landing_.latency_ms = static_cast<double>(latency_us) / 1000.0;
  txn_ = kInvalidTxnId;
  txn_span_ = 0;
  SubmitTransaction(landed);
}

ClientStats& SimClient::OpenLanding(SimTime at, uint64_t span) {
  landing_.at = at;
  landing_.delta = ClientStats{};
  landing_.latency_ms = -1.0;
  landing_.span = span;
  landing_.span_txn = txn_;
  return landing_.delta;
}

void SimClient::SettleLanding() {
  if (landing_.at == kNoLanding) return;
  stats_ += landing_.delta;
  if (landing_.latency_ms >= 0.0) latency_ms_.Record(landing_.latency_ms);
  EndSpanAt(landing_.at, SpanKind::kRpc, landing_.span, landing_.span_txn,
            site_);
  landing_.at = kNoLanding;
}

const ClientStats& SimClient::StatsAt(SimTime now) {
  if (landing_.at <= now) SettleLanding();
  return stats_;
}

const Histogram& SimClient::LatencyHistogramAt(SimTime now) {
  if (landing_.at <= now) SettleLanding();
  return latency_ms_;
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
