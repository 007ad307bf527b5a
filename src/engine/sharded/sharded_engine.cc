#include "engine/sharded/sharded_engine.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "obs/trace.h"

namespace esr {
namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// ReleaseFootprint's per-thread scratch: the shard of each pending
/// write, then of each registered read, so the per-shard passes compare
/// small integers instead of redoing a modulo per object per shard.
thread_local std::vector<uint32_t> t_footprint_shards;

}  // namespace

ShardedEngine::ShardedEngine(const ShardedEngineOptions& options,
                             const ObjectStoreOptions& store_options,
                             const GroupSchema* schema,
                             MetricRegistry* metrics,
                             const DivergenceOptions& divergence)
    : schema_(schema), metrics_(metrics), counters_(metrics) {
  ESR_CHECK(schema_ != nullptr);
  ESR_CHECK(metrics_ != nullptr);
  map_.num_shards = std::max<size_t>(1, options.num_shards);
  map_.num_objects = store_options.num_objects;
  shards_.reserve(map_.num_shards);
  for (size_t s = 0; s < map_.num_shards; ++s) {
    ObjectStoreOptions local = store_options;
    local.num_objects = map_.CountFor(s);
    // Decorrelate per-shard initial values / object limits while keeping
    // the whole database deterministic in the base seed.
    local.seed = store_options.seed + static_cast<uint64_t>(s) * 0x9E3779B97F4A7C15ull;
    shards_.push_back(std::make_unique<Shard>(s, local, divergence, metrics,
                                              options.record_commit_log));
  }
  const size_t stripes = RoundUpPow2(std::max<size_t>(1, options.txn_stripes));
  stripe_mask_ = stripes - 1;
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<TxnStripe>());
  }
}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::ReserveForLoad(const LoadHints& hints) {
  if (hints.objects_per_txn > 0) {
    access_hint_.store(hints.objects_per_txn, std::memory_order_relaxed);
  }
  if (hints.concurrent_txns > 0) {
    // Double the fair share per stripe: id striping is uniform but
    // transient imbalance is free to absorb up front.
    const size_t per_stripe = 2 * (hints.concurrent_txns / stripes_.size() + 1);
    for (auto& stripe : stripes_) {
      std::lock_guard<SpinMutex> lock(stripe->mu);
      stripe->map.Reserve(per_stripe);
      stripe->pool.reserve(per_stripe);
    }
  }
}

void ShardedEngine::SetHeadroomTracker(NodeHeadroomTracker* tracker) {
  headroom_tracker_.store(tracker, std::memory_order_relaxed);
}

void ShardedEngine::SetSharedBounds(const BoundSpec& import_bounds,
                                    const BoundSpec& export_bounds) {
  ESR_CHECK(num_active_.load(std::memory_order_relaxed) == 0)
      << "SetSharedBounds with transactions in flight";
  shared_import_ = std::make_unique<ShardedAccumulator>(
      schema_, import_bounds, ChargeDirection::kImport, shards_.size());
  shared_export_ = std::make_unique<ShardedAccumulator>(
      schema_, export_bounds, ChargeDirection::kExport, shards_.size());
}

Transaction* ShardedEngine::FindLive(TxnId txn) {
  TxnStripe& stripe = StripeFor(txn);
  std::lock_guard<SpinMutex> lock(stripe.mu);
  std::unique_ptr<Transaction>* slot = stripe.map.Find(txn);
  return slot == nullptr ? nullptr : slot->get();
}

TxnId ShardedEngine::Begin(TxnType type, Timestamp ts,
                           const BoundSpec& bounds) {
  return BeginWith(type, ts, bounds, nullptr);
}

TxnId ShardedEngine::BeginUpdateWithImport(Timestamp ts,
                                           const BoundSpec& export_bounds,
                                           const BoundSpec& import_bounds) {
  return BeginWith(TxnType::kUpdate, ts, export_bounds, &import_bounds);
}

TxnId ShardedEngine::BeginWith(TxnType type, Timestamp ts,
                               const BoundSpec& bounds,
                               const BoundSpec* import_bounds) {
  ScopedPhaseTimer phase(ProfilePhase::kValidate);
  const TxnId id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  TxnStripe& stripe = StripeFor(id);
  Transaction* txn;
  {
    std::lock_guard<SpinMutex> lock(stripe.mu);
    std::unique_ptr<Transaction> shell;
    if (!stripe.pool.empty()) {
      shell = std::move(stripe.pool.back());
      stripe.pool.pop_back();
      if (import_bounds != nullptr) {
        shell->ResetForReuse(id, ts, bounds, *import_bounds);
      } else {
        shell->ResetForReuse(id, type, ts, bounds);
      }
    } else if (import_bounds != nullptr) {
      shell = std::make_unique<Transaction>(id, ts, schema_, bounds,
                                            *import_bounds);
    } else {
      shell = std::make_unique<Transaction>(id, type, ts, schema_, bounds);
    }
    txn = stripe.map.TryEmplace(id, std::move(shell)).first->get();
  }
  counters_.RecordBegin(*txn, access_hint_.load(std::memory_order_relaxed),
                        headroom_tracker_.load(std::memory_order_relaxed));
  num_active_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

OpResult ShardedEngine::Read(TxnId txn, ObjectId object) {
  return Execute(OpRequest{txn, object, /*is_write=*/false, 0});
}

OpResult ShardedEngine::Write(TxnId txn, ObjectId object, Value value) {
  return Execute(OpRequest{txn, object, /*is_write=*/true, value});
}

OpResult ShardedEngine::Execute(const OpRequest& req) {
  ScopedPhaseTimer phase(ProfilePhase::kValidate);
  Transaction* t = FindLive(req.txn);
  ESR_CHECK(t != nullptr)
      << "operation on unknown/finished transaction " << req.txn;
  Shard& shard = ShardForObject(req.object);
  OpResult r;
  {
    std::lock_guard<ProfiledMutex> lock(shard.latch());
    r = ExecuteLatched(*t, req, shard);
  }
  if (r.kind == OpResult::Kind::kAbort) TeardownAbort(t, r.abort_reason);
  return r;
}

void ShardedEngine::ExecuteBatch(OpBatch& batch) {
  ScopedPhaseTimer phase(ProfilePhase::kValidate);
  const size_t n = shards_.size();
  if (batch.by_shard.size() < n) batch.by_shard.resize(n);
  for (auto& idx : batch.by_shard) idx.clear();
  batch.txns.clear();
  batch.results.clear();
  batch.results.resize(batch.reqs.size());
  for (size_t i = 0; i < batch.reqs.size(); ++i) {
    const OpRequest& req = batch.reqs[i];
    Transaction* t = FindLive(req.txn);
    ESR_CHECK(t != nullptr)
        << "batched operation on unknown/finished transaction " << req.txn;
    batch.txns.push_back(t);
    batch.by_shard[map_.ShardOf(req.object)].push_back(
        static_cast<uint32_t>(i));
  }
  for (size_t s = 0; s < n; ++s) {
    const std::vector<uint32_t>& idx = batch.by_shard[s];
    if (idx.empty()) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<ProfiledMutex> lock(shard.latch());
    for (const uint32_t i : idx) {
      batch.results[i] = ExecuteLatched(*batch.txns[i], batch.reqs[i], shard);
    }
  }
  // Teardown outside every shard latch: abort restore touches the
  // transaction's whole write set, which can span other shards.
  for (size_t i = 0; i < batch.results.size(); ++i) {
    const OpResult& r = batch.results[i];
    if (r.kind == OpResult::Kind::kAbort) {
      TeardownAbort(batch.txns[i], r.abort_reason);
    }
  }
}

OpResult ShardedEngine::ExecuteLatched(Transaction& txn, const OpRequest& req,
                                       Shard& shard) {
  shard.latch().set_holder(req.txn);
  TraceSpan op_span(SpanKind::kOp, req.txn, txn.ts().site, req.object,
                    txn.trace_span());
  ObjectRecord& obj = shard.store().Get(map_.LocalId(req.object));
  const OpKernel kernel(
      &shard.data(), &counters_, &shard.bound_stats(),
      SharedBudget{shared_import_.get(), shared_export_.get(), shard.index()});
  const OpResult r = req.is_write
                         ? kernel.Write(txn, req.object, obj, req.value)
                         : kernel.Read(txn, req.object, obj);
  ShardStats& stats = shard.stats();
  stats.ops++;
  if (r.kind == OpResult::Kind::kWait) stats.waits++;
  if (req.is_write && r.ok()) stats.applied_writes++;
  return r;
}

Status ShardedEngine::Commit(TxnId txn) {
  ScopedPhaseTimer phase(ProfilePhase::kCommit);
  Transaction* t = FindLive(txn);
  if (t == nullptr) {
    return Status::FailedPrecondition("transaction " + std::to_string(txn) +
                                      " is not active");
  }
  {
    // Installing the writes is store mutation, not commit bookkeeping.
    ScopedPhaseTimer apply_phase(ProfilePhase::kApply);
    ReleaseFootprint(t, /*commit=*/true);
  }
  commit_batches_total_.fetch_add(1, std::memory_order_relaxed);
  FinishCommit(t);
  return Status::OK();
}

void ShardedEngine::ReleaseFootprint(Transaction* txn, bool commit) {
  const std::vector<ObjectId>& writes = txn->pending_writes();
  const std::vector<ObjectId>& reads = txn->registered_reads();
  std::vector<uint32_t>& shard_of = t_footprint_shards;
  shard_of.clear();
  for (const ObjectId object : writes) {
    shard_of.push_back(static_cast<uint32_t>(map_.ShardOf(object)));
  }
  for (const ObjectId object : reads) {
    shard_of.push_back(static_cast<uint32_t>(map_.ShardOf(object)));
  }
  // Ascending shard order, one latch at a time. On abort this is the
  // shadow-value recovery of Sec. 6.
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if (std::find(shard_of.begin(), shard_of.end(), s) == shard_of.end()) {
      continue;
    }
    Shard& shard = *shards_[s];
    std::lock_guard<ProfiledMutex> lock(shard.latch());
    shard.latch().set_holder(txn->id());
    int64_t committed = 0;
    for (size_t i = 0; i < writes.size(); ++i) {
      if (shard_of[i] != s) continue;
      ObjectRecord& obj = shard.store().Get(map_.LocalId(writes[i]));
      if (commit) {
        obj.CommitWrite(txn->id());
        shard.RecordCommit(writes[i], txn->id(), obj.write_ts());
        ++committed;
      } else {
        obj.AbortWrite(txn->id());
      }
    }
    if (committed > 0) {
      ShardStats& stats = shard.stats();
      stats.committed_writes += committed;
      stats.committed_writers++;
    }
    for (size_t i = 0; i < reads.size(); ++i) {
      if (shard_of[writes.size() + i] != s) continue;
      shard.store().Get(map_.LocalId(reads[i])).UnregisterQueryReader(
          txn->id());
    }
  }
}

void ShardedEngine::FinishCommit(Transaction* txn) {
  {
    TraceSpan commit_span(SpanKind::kCommit, txn->id(), txn->ts().site, 0,
                          txn->trace_span());
    counters_.RecordFinish(*txn, AbortReason::kNone);
  }
  UnchargeShared(*txn);
  ReleaseTxn(txn);
}

Status ShardedEngine::Abort(TxnId txn) {
  ScopedPhaseTimer phase(ProfilePhase::kCommit);
  Transaction* t = FindLive(txn);
  if (t == nullptr) {
    return Status::FailedPrecondition("transaction " + std::to_string(txn) +
                                      " is not active");
  }
  TraceSpan commit_span(SpanKind::kCommit, txn, t->ts().site, 0,
                        t->trace_span());
  TeardownAbort(t, AbortReason::kUserRequested);
  return Status::OK();
}

void ShardedEngine::TeardownAbort(Transaction* txn, AbortReason reason) {
  // Abort teardown is commit-path work whichever op triggered it; the
  // nested scope keeps shadow recovery out of kValidate self-time when
  // a mid-operation abort lands here.
  ScopedPhaseTimer phase(ProfilePhase::kCommit);
  ReleaseFootprint(txn, /*commit=*/false);
  counters_.RecordFinish(*txn, reason);
  UnchargeShared(*txn);
  ReleaseTxn(txn);
}

void ShardedEngine::UnchargeShared(const Transaction& txn) {
  if (txn.is_query()) {
    if (shared_import_ != nullptr && shared_import_->enforced()) {
      shared_import_->UnchargeAccumulated(txn.accumulator());
    }
    return;
  }
  if (shared_export_ != nullptr && shared_export_->enforced()) {
    shared_export_->UnchargeAccumulated(txn.accumulator());
  }
  if (txn.import_accumulator() != nullptr && shared_import_ != nullptr &&
      shared_import_->enforced()) {
    shared_import_->UnchargeAccumulated(*txn.import_accumulator());
  }
}

void ShardedEngine::ReleaseTxn(Transaction* txn) {
  const TxnId id = txn->id();
  TxnStripe& stripe = StripeFor(id);
  std::lock_guard<SpinMutex> lock(stripe.mu);
  std::unique_ptr<Transaction>* slot = stripe.map.Find(id);
  ESR_CHECK(slot != nullptr) << "double release of transaction " << id;
  stripe.pool.push_back(std::move(*slot));
  stripe.map.Erase(id);
  num_active_.fetch_sub(1, std::memory_order_relaxed);
}

bool ShardedEngine::IsActive(TxnId txn) const {
  const TxnStripe& stripe = StripeFor(txn);
  std::lock_guard<SpinMutex> lock(stripe.mu);
  return stripe.map.Contains(txn);
}

const Transaction* ShardedEngine::Find(TxnId txn) const {
  const TxnStripe& stripe = StripeFor(txn);
  std::lock_guard<SpinMutex> lock(stripe.mu);
  const std::unique_ptr<Transaction>* slot = stripe.map.Find(txn);
  return slot == nullptr ? nullptr : slot->get();
}

size_t ShardedEngine::num_active() const {
  return num_active_.load(std::memory_order_relaxed);
}

ShardStats ShardedEngine::SnapshotShardStats(size_t shard) {
  ESR_CHECK(shard < shards_.size());
  return shards_[shard]->SnapshotStats();
}

const std::vector<CommitLogEntry>& ShardedEngine::commit_log(
    size_t shard) const {
  ESR_CHECK(shard < shards_.size());
  return shards_[shard]->commit_log();
}

void ShardedEngine::ExportShardGauges(MetricRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->gauge("engine.shards").Set(static_cast<double>(shards_.size()));
  metrics->gauge("engine.commit_batches")
      .Set(static_cast<double>(
          commit_batches_total_.load(std::memory_order_relaxed)));
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ShardStats stats = shards_[s]->SnapshotStats();
    const std::string prefix = "engine.shard" + std::to_string(s);
    metrics->gauge(prefix + ".ops").Set(static_cast<double>(stats.ops));
    metrics->gauge(prefix + ".waits").Set(static_cast<double>(stats.waits));
    metrics->gauge(prefix + ".applied_writes")
        .Set(static_cast<double>(stats.applied_writes));
    metrics->gauge(prefix + ".committed_writes")
        .Set(static_cast<double>(stats.committed_writes));
    metrics->gauge(prefix + ".committed_writers")
        .Set(static_cast<double>(stats.committed_writers));
  }
  if (shared_import_ != nullptr) shared_import_->ExportGauges(metrics);
  if (shared_export_ != nullptr) shared_export_->ExportGauges(metrics);
}

Value ShardedEngine::TotalValue() const {
  Value total = 0;
  for (const auto& shard : shards_) {
    total += shard->store().TotalValue();
  }
  return total;
}

}  // namespace esr
