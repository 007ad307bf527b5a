#ifndef ESR_TXN_ENGINE_H_
#define ESR_TXN_ENGINE_H_

#include <string_view>

#include "common/metrics.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "common/types.h"
#include "hierarchy/bound_spec.h"
#include "txn/op_result.h"
#include "txn/transaction.h"

namespace esr {

/// Which concurrency-control protocol the server runs. The paper's
/// prototype uses timestamp ordering; the 2PL and MVTO engines implement
/// the alternatives it discusses (Sec. 4 motivates avoiding 2PL's
/// deadlock handling; Sec. 5.1 contrasts the proper-value scheme with
/// MVTO) so they can be compared on identical workloads.
enum class EngineKind : uint8_t {
  /// Timestamp ordering with the ESR relaxations of Fig. 3 (the paper's
  /// protocol). Zero-bound transactions run plain strict TO. Runs on the
  /// sharded engine with one shard.
  kTimestampOrdering = 0,
  /// Strict two-phase locking with wait-die deadlock prevention, plus
  /// Wu-et-al-style divergence control: ESR queries read without locks
  /// under the same bound checks.
  kTwoPhaseLocking = 1,
  /// Multiversion timestamp ordering: queries read a committed snapshot
  /// (always serializable, never inconsistent), at the cost of staleness
  /// and per-object version storage. Ignores inconsistency bounds.
  kMultiversion = 2,
  /// The TO-ESR protocol scaled across cores: the object store is
  /// partitioned into independently-latched shards, each transaction
  /// commits on its own thread one shard latch at a time, and an optional
  /// engine-wide epsilon budget is enforced by lock-free sharded
  /// accumulators (src/engine/sharded/).
  kSharded = 3,
};

std::string_view EngineKindToString(EngineKind kind);

/// The counters every engine bumps on its hot path, resolved against the
/// registry once at engine construction: per-operation accounting is then
/// a single relaxed atomic increment instead of a name lookup. The
/// registry owns the counters and must outlive the engine.
struct EngineCounters {
  explicit EngineCounters(MetricRegistry* metrics);

  Counter* op_read;
  Counter* op_write;
  Counter* op_wait;
  Counter* op_inconsistent_ok;
  /// Indexed by TxnType (kQuery = 0, kUpdate = 1).
  Counter* begin[2];
  Counter* commit[2];
  Counter* txn_abort;
  /// Indexed by AbortReason.
  Counter* abort_reason[kNumAbortReasons];

  Counter* BeginFor(TxnType type) {
    return begin[static_cast<size_t>(type)];
  }
  Counter* CommitFor(TxnType type) {
    return commit[static_cast<size_t>(type)];
  }
  Counter* AbortFor(AbortReason reason) {
    return abort_reason[static_cast<size_t>(reason)];
  }

  /// Begin prologue every engine runs once it has registered `txn`:
  /// pre-sizes its access sets (`access_hint` 0 skips), attaches the
  /// headroom tracker (may be null), opens the lifetime span, and counts
  /// and traces the begin.
  void RecordBegin(Transaction& txn, size_t access_hint,
                   NodeHeadroomTracker* tracker);

  /// Counts and traces an operation of `txn` on `object` that must wait
  /// for `blocker` to resolve, and returns the kWait result.
  OpResult RecordWait(const Transaction& txn, ObjectId object,
                      TxnId blocker);

  /// Finish epilogue every engine runs once the store no longer holds
  /// `txn`'s shadow writes or reader registrations: counts and traces the
  /// commit (`reason` kNone) or the abort, resolves the conflict flows
  /// that targeted a writer (arrows bind by writer TxnId; unmatched ends
  /// are ignored by trace viewers), and closes the lifetime span.
  void RecordFinish(const Transaction& txn, AbortReason reason);
};

/// Expected steady-state load, used to pre-size engine hash maps so the
/// hot path never rehashes mid-run. Over-estimating is cheap (a few KB);
/// zero fields are ignored.
struct LoadHints {
  /// Concurrent transactions (the simulator's MPL; a threaded server's
  /// client-thread count).
  size_t concurrent_txns = 0;
  /// Objects one transaction touches (the workload's transaction length).
  size_t objects_per_txn = 0;
};

/// The protocol-independent transaction-engine interface the server, the
/// simulated clients, and the public API program against. All engines
/// share the OpResult contract (OK / WAIT-retry / ABORT-resubmit) and the
/// per-transaction `Transaction` state record.
class TransactionEngine {
 public:
  virtual ~TransactionEngine() = default;

  /// Pre-sizes internal tables for the expected load (see LoadHints).
  /// Call before the run starts; default no-op.
  virtual void ReserveForLoad(const LoadHints& hints) { (void)hints; }

  /// Starts an ET with a client-supplied timestamp and hierarchical bound
  /// declaration (root limit = TIL or TEL). Borrowed, not consumed: the
  /// spec is a per-type declaration the caller typically reuses for every
  /// transaction of a run, and transaction-pooling engines copy its
  /// limits into recycled storage without allocating.
  virtual TxnId Begin(TxnType type, Timestamp ts,
                      const BoundSpec& bounds) = 0;

  virtual OpResult Read(TxnId txn, ObjectId object) = 0;

  /// Only update ETs may write.
  virtual OpResult Write(TxnId txn, ObjectId object, Value value) = 0;

  virtual Status Commit(TxnId txn) = 0;
  virtual Status Abort(TxnId txn) = 0;

  virtual bool IsActive(TxnId txn) const = 0;

  /// Borrowed view of an active transaction's engine-agnostic state
  /// (accumulators, observed value ranges); nullptr when not active.
  virtual const Transaction* Find(TxnId txn) const = 0;

  virtual size_t num_active() const = 0;

  /// Points every transaction's bound-charge probes at `tracker` so the
  /// telemetry layer can sample per-node epsilon headroom (see
  /// NodeHeadroomTracker). Default no-op: engines that ignore bounds
  /// (MVTO) have nothing to report. `tracker` must outlive the engine;
  /// nullptr detaches.
  virtual void SetHeadroomTracker(NodeHeadroomTracker* tracker) {
    (void)tracker;
  }
};

}  // namespace esr

#endif  // ESR_TXN_ENGINE_H_
