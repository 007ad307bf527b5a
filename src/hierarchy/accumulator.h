#ifndef ESR_HIERARCHY_ACCUMULATOR_H_
#define ESR_HIERARCHY_ACCUMULATOR_H_

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "common/metrics.h"
#include "common/timestamp.h"
#include "common/types.h"
#include "hierarchy/bound_spec.h"
#include "hierarchy/group_schema.h"
#include "obs/trace.h"

namespace esr {

/// Live per-node epsilon-headroom telemetry, fed by the accumulator's
/// charge pass: for every hierarchy node it keeps, over the current
/// sampling window, the largest accumulated inconsistency any
/// transaction reached there, the smallest *headroom fraction*
/// ((limit - accumulated) / limit — the margin to a bound violation as a
/// fraction of the bound), the limit in force at that minimum, and the
/// number of charges. Nodes a transaction left unbounded (or bounded at
/// zero, i.e. serializable) are never observed: headroom is only
/// meaningful against a positive finite bound.
///
/// The interesting signal is the margin to a violation, not the post-hoc
/// violation itself; a window whose minimum headroom dips toward zero
/// shows *when* the workload ran hot against its bounds even though
/// every individual check still admitted.
///
/// Slots are relaxed atomics so the threaded server's background sampler
/// can read while engine threads publish; the discrete-event simulator
/// uses the same code single-threaded. One tracker instance serves every
/// accumulator of one engine (attach via
/// TransactionEngine::SetHeadroomTracker); windows are advanced by
/// whoever samples (SeriesSampler, threaded_server's gauge loop).
class NodeHeadroomTracker {
 public:
  struct NodeSample {
    double max_accumulated = 0.0;
    /// 1.0 (full headroom) when the node was not observed this window.
    double min_headroom_frac = 1.0;
    /// Limit in force when the minimum was recorded (0 if unobserved).
    double limit_at_min = 0.0;
    int64_t charges = 0;
  };

  explicit NodeHeadroomTracker(size_t num_nodes) : slots_(num_nodes) {
    StartWindow();
  }

  NodeHeadroomTracker(const NodeHeadroomTracker&) = delete;
  NodeHeadroomTracker& operator=(const NodeHeadroomTracker&) = delete;

  size_t num_nodes() const { return slots_.size(); }

  /// Hot-path probe (called from the accumulator's charge pass, under
  /// the engine latch): a handful of relaxed atomic min/max updates.
  void Observe(GroupId group, Inconsistency accumulated,
               Inconsistency limit) {
    if (limit <= 0.0 || limit >= kUnbounded || group >= slots_.size()) {
      return;
    }
    Slot& slot = slots_[group];
    AtomicMax(slot.max_accumulated, accumulated);
    const double frac = (limit - accumulated) / limit;
    if (AtomicMin(slot.min_headroom_frac, frac)) {
      // Pairing is best-effort under concurrency: the limit published
      // here can momentarily belong to a different charge than the
      // minimum. Exact in the single-threaded simulator.
      slot.limit_at_min.store(Bits(limit), std::memory_order_relaxed);
    }
    slot.charges.fetch_add(1, std::memory_order_relaxed);
  }

  /// Current-window reading of one node.
  NodeSample WindowSample(GroupId group) const;

  /// Resets every node's window-local extrema (start of a new sampling
  /// window). Not synchronized with concurrent Observe calls beyond slot
  /// atomicity: a charge racing the reset lands in one window or the
  /// other, never in neither.
  void StartWindow();

 private:
  struct Slot {
    std::atomic<uint64_t> max_accumulated{0};
    std::atomic<uint64_t> min_headroom_frac{0};
    std::atomic<uint64_t> limit_at_min{0};
    std::atomic<int64_t> charges{0};
  };

  static uint64_t Bits(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double FromBits(uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  static void AtomicMax(std::atomic<uint64_t>& slot, double value);
  /// True when `value` became the new minimum.
  static bool AtomicMin(std::atomic<uint64_t>& slot, double value);

  std::vector<Slot> slots_;
};

/// Which direction of inconsistency an accumulator tracks: imported (what
/// relaxed reads absorbed, the paper's script-I) or exported (what this
/// transaction's writes leaked to others, script-E). Recorded in every
/// BoundCheck trace event so the offline auditor can recertify each
/// accumulator's bounds independently.
enum class ChargeDirection : uint8_t {
  kImport = 0,
  kExport = 1,
};

const char* ChargeDirectionToString(ChargeDirection direction);

/// Outcome of attempting to charge an operation's inconsistency against a
/// transaction's hierarchical bounds.
struct ChargeResult {
  bool admitted = false;
  /// Node whose limit rejected the charge (kInvalidGroup when admitted).
  GroupId violated_group = kInvalidGroup;
};

/// Per-level bound-check outcome counters, lazily registered in a
/// MetricRegistry as `bound_check.level<depth>.admit|reject` (depth 0 is
/// the transaction level / root, deeper levels are groups). One instance
/// lives in each engine and is handed to TryCharge so the Sec. 5
/// machinery stops being a black box: the metrics snapshot shows exactly
/// which level of the hierarchy admits or rejects charges.
///
/// Not internally synchronized: callers invoke Count under the engine's
/// latch (the counters themselves are atomic).
class BoundCheckStats {
 public:
  /// `metrics` may be nullptr (all counting disabled); it must outlive
  /// this object otherwise.
  explicit BoundCheckStats(MetricRegistry* metrics) : metrics_(metrics) {}

  void Count(size_t depth, bool admitted);

 private:
  Counter* Slot(std::vector<Counter*>& slots, size_t depth,
                const char* suffix);

  MetricRegistry* metrics_;
  // Indexed by depth; grown lazily since the schema may gain levels after
  // the engine is constructed.
  std::vector<Counter*> admit_;
  std::vector<Counter*> reject_;
};

/// Per-transaction, per-direction (import or export) accumulation of
/// inconsistency over the group hierarchy, implementing the bottom-up
/// control of Sec. 5.3.1:
///
///   for each node n on path(object) -> root:
///     accumulated[n] + d * weight(n) <= limit(n)    (check pass)
///   then increment every node on the path            (charge pass)
///
/// If any check fails nothing is charged and the transaction must abort.
/// The root accumulation is the transaction's total imported inconsistency
/// (the paper's script-I for queries / script-E for updates).
class InconsistencyAccumulator {
 public:
  /// `schema` must outlive the accumulator. `bounds` is copied (it is a
  /// per-transaction declaration). `direction` only labels the trace
  /// events this accumulator emits; it does not change the arithmetic.
  InconsistencyAccumulator(const GroupSchema* schema, BoundSpec bounds,
                           ChargeDirection direction = ChargeDirection::kImport);

  /// Checks the full leaf-to-root path for `object` and, if every level
  /// admits `d`, charges every level. d must be >= 0; d == 0 always
  /// succeeds without modifying state.
  ///
  /// When `stats` is non-null every node check is counted per level, and
  /// when the global trace recorder is enabled a BoundCheck event is
  /// emitted per node (attributed to `txn`/`site`). The bottom-up
  /// short-circuit is observable: nodes above the first rejecting one are
  /// neither checked nor counted.
  ChargeResult TryCharge(ObjectId object, Inconsistency d,
                         BoundCheckStats* stats = nullptr,
                         TxnId txn = kInvalidTxnId, SiteId site = 0) {
    if (d == 0.0) return ChargeResult{true, kInvalidGroup};
    // Dispatch inline so call sites on the per-operation hot path reach
    // the untraced walk — whose frame matches an ESR_TRACE_DISABLED
    // build's exactly — through one predicted branch.
    if (GlobalTraceWants(TraceEventType::kBoundCheck)) {
      return TryChargeImpl<true>(object, d, stats, txn, site);
    }
    return TryChargeImpl<false>(object, d, stats, txn, site);
  }

  /// Pure check: would `d` on `object` be admitted? Never charges.
  ChargeResult Check(ObjectId object, Inconsistency d) const;

  /// Inconsistency accumulated at one node.
  Inconsistency accumulated(GroupId group) const;

  /// Total inconsistency at the transaction level (root accumulation).
  Inconsistency total() const { return accumulated(kRootGroup); }

  /// Remaining headroom at the transaction level.
  Inconsistency Headroom() const;

  const BoundSpec& bounds() const { return bounds_; }
  ChargeDirection direction() const { return direction_; }
  const GroupSchema* schema() const { return schema_; }

  /// Rewinds to a freshly-constructed state under a new bound
  /// declaration, reusing the node array's and the bound table's storage
  /// (the transaction pool's reset path; allocation-free in steady
  /// state). Detaches any headroom tracker — the engine reattaches one
  /// right after Begin.
  void ResetForReuse(const BoundSpec& bounds, ChargeDirection direction) {
    bounds_.AssignFrom(bounds);
    direction_ = direction;
    std::fill(accumulated_.begin(), accumulated_.end(), 0.0);
#ifndef ESR_TRACE_DISABLED
    tracker_ = nullptr;
#endif
  }

  /// Attaches the engine's headroom tracker; every subsequent successful
  /// charge publishes (accumulated, limit) per path node. nullptr (the
  /// default) keeps the charge pass probe-free; compiled out entirely
  /// under ESR_TRACE_DISABLED. `tracker` must outlive the accumulator.
  void set_headroom_tracker(NodeHeadroomTracker* tracker) {
#ifndef ESR_TRACE_DISABLED
    tracker_ = tracker;
#else
    (void)tracker;
#endif
  }

 private:
  /// The walk body; instantiated untraced (branch-identical to an
  /// ESR_TRACE_DISABLED build) and traced, selected once per call.
  template <bool kTraced>
  ChargeResult TryChargeImpl(ObjectId object, Inconsistency d,
                             BoundCheckStats* stats, TxnId txn, SiteId site);

  const GroupSchema* schema_;
  BoundSpec bounds_;
  ChargeDirection direction_;
#ifndef ESR_TRACE_DISABLED
  NodeHeadroomTracker* tracker_ = nullptr;
#endif
  // Indexed by GroupId; lazily sized to schema_->num_groups().
  std::vector<Inconsistency> accumulated_;
};

}  // namespace esr

#endif  // ESR_HIERARCHY_ACCUMULATOR_H_
