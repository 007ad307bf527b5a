#ifndef ESR_ENGINE_SHARDED_SHARDED_ENGINE_H_
#define ESR_ENGINE_SHARDED_SHARDED_ENGINE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/flat_map.h"
#include "common/metrics.h"
#include "common/spin_mutex.h"
#include "engine/sharded/shard.h"
#include "engine/sharded/shard_map.h"
#include "engine/sharded/sharded_accumulator.h"
#include "hierarchy/group_schema.h"
#include "txn/engine.h"
#include "txn/op_kernel.h"
#include "txn/transaction.h"

namespace esr {

/// Sharded-engine configuration (ServerOptions carries one).
struct ShardedEngineOptions {
  /// Object-store partitions, each with its own latch and TO state.
  size_t num_shards = 4;
  /// Stripes of the transaction table (rounded up to a power of two).
  size_t txn_stripes = 16;
  /// Record every committed write per shard for the stress harness's
  /// timestamp-order invariant check. Off for production runs (the log
  /// grows with committed writes).
  bool record_commit_log = false;
};

/// One batched operation for ShardedEngine::ExecuteBatch. At most one
/// in-flight op per transaction per batch (a transaction's ops are
/// sequential; its session submits the next only after consuming the
/// previous result).
struct OpRequest {
  TxnId txn = kInvalidTxnId;
  ObjectId object = kInvalidObjectId;
  bool is_write = false;
  Value value = 0;
};

/// Reusable batch container: submit ops in `reqs`, read verdicts from
/// `results` (parallel arrays). The internal scratch keeps its capacity
/// across calls, so a worker looping on one OpBatch stays off the
/// allocator.
struct OpBatch {
  std::vector<OpRequest> reqs;
  std::vector<OpResult> results;

  // ExecuteBatch scratch (per-shard index lists, each request's
  // transaction).
  std::vector<std::vector<uint32_t>> by_shard;
  std::vector<Transaction*> txns;
};

/// The multi-core ESR engine: the paper's TO protocol (Fig. 3 relaxations,
/// Sec. 5 hierarchical bound checks, shadow-value recovery) scaled out by
/// partitioning the object store into shards — each with its own
/// ProfiledMutex latch, local ObjectStore slice, and data manager — so
/// operations on different shards never serialize.
///
/// Concurrency architecture (DESIGN.md §"Sharded engine"):
///  * Object state is guarded by the owning shard's latch; an operation
///    takes exactly one. No code path ever holds two shard latches at
///    once (commit and abort walk the shards one at a time), so there is
///    no latch ordering to violate and no deadlock.
///  * Transaction state lives in a striped table (SpinMutex + FlatMap of
///    unique_ptr per stripe, so pointers survive backward-shift erases of
///    their neighbors). A Transaction's contents are only ever touched by
///    its owning session thread.
///  * Each transaction commits itself on the calling thread: it walks
///    the shards it touched in ascending order, one latch at a time,
///    commits its own pending writes and drops its reader registrations
///    there, then finishes. Nothing queues behind another committer, and
///    a query ET's commit only deregisters its reads.
///  * Every latch and stripe lock spins briefly before it parks
///    (SpinMutex): critical sections are far shorter than a futex sleep
///    and wakeup, so a collision costs a few pauses instead of a context
///    switch.
///  * Per-transaction accumulators work the same at any shard count
///    (same trace events, so BoundWalkReplayer / StreamCertifier
///    recertify unchanged). An optional engine-wide budget
///    (SetSharedBounds) is enforced by lock-free ShardedAccumulators on
///    top: shared charge first, transaction charge second, shared
///    uncharge on reject or at teardown.
///
/// Timestamps remain client-assigned (one TimestampGenerator per
/// session); shard-local decisions only ever compare timestamps of
/// operations on that shard's objects, so the cross-shard clock skew a
/// multi-threaded run exhibits costs aborts at worst, never correctness.
class ShardedEngine final : public TransactionEngine {
 public:
  /// `schema` and `metrics` must outlive the engine. The schema may gain
  /// groups after construction (per-transaction accumulators size
  /// lazily), but SetSharedBounds must come after the schema is final.
  ShardedEngine(const ShardedEngineOptions& options,
                const ObjectStoreOptions& store_options,
                const GroupSchema* schema, MetricRegistry* metrics,
                const DivergenceOptions& divergence = {});
  ~ShardedEngine() override;

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // -- TransactionEngine ---------------------------------------------------
  void ReserveForLoad(const LoadHints& hints) override;
  TxnId Begin(TxnType type, Timestamp ts, const BoundSpec& bounds) override;
  OpResult Read(TxnId txn, ObjectId object) override;
  OpResult Write(TxnId txn, ObjectId object, Value value) override;
  Status Commit(TxnId txn) override;
  Status Abort(TxnId txn) override;
  bool IsActive(TxnId txn) const override;
  const Transaction* Find(TxnId txn) const override;
  size_t num_active() const override;
  void SetHeadroomTracker(NodeHeadroomTracker* tracker) override;

  /// Starts an update ET that may also IMPORT inconsistency through its
  /// reads (Sec. 1 generalization; not part of the paper's evaluation):
  /// `export_bounds` is the TEL declaration, `import_bounds` the budget
  /// its relaxed reads are charged against. With a zero import budget
  /// this is identical to Begin(kUpdate, ...).
  TxnId BeginUpdateWithImport(Timestamp ts, const BoundSpec& export_bounds,
                              const BoundSpec& import_bounds);

  // -- Batched submission --------------------------------------------------
  /// Executes every op in `batch.reqs`, filling `batch.results`. The
  /// batch exists for two reasons: ops are grouped by shard so each shard
  /// latch is taken once per batch, and every op's object record is
  /// prefetched while grouping, so the records' cache misses overlap
  /// instead of stalling the latched loop one op at a time. At most one
  /// op per transaction per batch; `batch` must not be shared between
  /// threads concurrently.
  void ExecuteBatch(OpBatch& batch);

  // -- Engine-wide epsilon budget ------------------------------------------
  /// Installs shared import/export budgets enforced across ALL in-flight
  /// transactions (on top of each transaction's own declaration). Call
  /// after the schema is fully built and before any transaction begins;
  /// not thread-safe against running operations.
  void SetSharedBounds(const BoundSpec& import_bounds,
                       const BoundSpec& export_bounds);

  /// Shared budgets (nullptr until SetSharedBounds).
  ShardedAccumulator* shared_import() { return shared_import_.get(); }
  ShardedAccumulator* shared_export() { return shared_export_.get(); }

  // -- Introspection -------------------------------------------------------
  size_t num_shards() const { return shards_.size(); }
  const ShardMap& shard_map() const { return map_; }

  /// Consistent per-shard stats snapshot (takes that shard's latch).
  ShardStats SnapshotShardStats(size_t shard);

  /// Quiescent-only: one shard's committed-write log (see CommitLogEntry;
  /// empty unless options.record_commit_log).
  const std::vector<CommitLogEntry>& commit_log(size_t shard) const;

  /// Publishes `engine.shard<i>.*` gauges from consistent per-shard
  /// snapshots (one latch acquisition per shard), the commit counter,
  /// and — when shared bounds are installed — the shared accumulators'
  /// in-flight node totals. Safe concurrently with running operations
  /// and commits; the scrape serializes on each shard latch briefly
  /// instead of reading fields torn.
  void ExportShardGauges(MetricRegistry* metrics);

  /// Sum of all committed object values across shards (quiescent only).
  Value TotalValue() const;

  /// True when `id` is a valid global object id.
  bool ContainsObject(ObjectId id) const {
    return static_cast<size_t>(id) < map_.num_objects;
  }

  /// Direct record access for loaders and tests (quiescent only — no
  /// latch is taken).
  ObjectRecord& ObjectAt(ObjectId id) {
    return shards_[map_.ShardOf(id)]->store().Get(map_.LocalId(id));
  }

  /// One partition (its store slice and data manager), for tests
  /// (quiescent only — no latch is taken).
  Shard& shard(size_t s) { return *shards_[s]; }

  /// Commit batches (relaxed). Every transaction commits on its own, so
  /// this is one batch per commit.
  int64_t commit_batches() const {
    return commit_batches_total_.load(std::memory_order_relaxed);
  }

  MetricRegistry& metrics() { return *metrics_; }
  const GroupSchema& schema() const { return *schema_; }

 private:
  struct TxnStripe {
    mutable SpinMutex mu;
    FlatMap<TxnId, std::unique_ptr<Transaction>> map;
    std::vector<std::unique_ptr<Transaction>> pool;
  };

  TxnStripe& StripeFor(TxnId txn) {
    return *stripes_[static_cast<size_t>(txn) & stripe_mask_];
  }
  const TxnStripe& StripeFor(TxnId txn) const {
    return *stripes_[static_cast<size_t>(txn) & stripe_mask_];
  }
  Shard& ShardForObject(ObjectId object) {
    return *shards_[map_.ShardOf(object)];
  }

  /// Begin and BeginUpdateWithImport (`import_bounds` non-null): registers
  /// the transaction, recycling a pooled shell when its stripe has one.
  TxnId BeginWith(TxnType type, Timestamp ts, const BoundSpec& bounds,
                  const BoundSpec* import_bounds);

  /// Live transaction lookup; the caller must be its owning session (the
  /// pointer stays valid because only the owner can finish it).
  Transaction* FindLive(TxnId txn);

  /// One Read/Write outside any latch: runs it under its shard's latch,
  /// then tears the transaction down on an abort verdict.
  OpResult Execute(const OpRequest& req);

  /// Runs `req` through the op kernel with its shard's latch held and
  /// books the shard's stats. An abort verdict leaves the transaction
  /// intact: the caller releases the latch, then calls TeardownAbort.
  OpResult ExecuteLatched(Transaction& txn, const OpRequest& req,
                          Shard& shard);

  /// Walks the shards `txn` touched in ascending order, one latch at a
  /// time: commits its pending writes there (booking the shard's commit
  /// stats) or, for an abort, restores their shadows, and drops its
  /// reader registrations. Must be called with no shard latch held.
  void ReleaseFootprint(Transaction* txn, bool commit);

  /// Emits the commit events, releases shared charges, recycles the
  /// shell.
  void FinishCommit(Transaction* txn);

  /// Abort teardown (op-failure or user abort): ReleaseFootprint, then
  /// the abort events, shared-charge release and shell recycling.
  void TeardownAbort(Transaction* txn, AbortReason reason);

  /// Returns the txn's charges to the shared budgets.
  void UnchargeShared(const Transaction& txn);

  /// Removes the transaction from its stripe and recycles the shell.
  void ReleaseTxn(Transaction* txn);

  const GroupSchema* schema_;
  MetricRegistry* metrics_;
  ShardMap map_;
  std::vector<std::unique_ptr<Shard>> shards_;

  size_t stripe_mask_ = 0;
  std::vector<std::unique_ptr<TxnStripe>> stripes_;
  std::atomic<TxnId> next_txn_id_{1};
  std::atomic<size_t> num_active_{0};
  std::atomic<NodeHeadroomTracker*> headroom_tracker_{nullptr};
  std::atomic<size_t> access_hint_{0};

  std::unique_ptr<ShardedAccumulator> shared_import_;
  std::unique_ptr<ShardedAccumulator> shared_export_;

  std::atomic<int64_t> commit_batches_total_{0};

  EngineCounters counters_;
};

}  // namespace esr

#endif  // ESR_ENGINE_SHARDED_SHARDED_ENGINE_H_
