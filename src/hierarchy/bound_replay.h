#ifndef ESR_HIERARCHY_BOUND_REPLAY_H_
#define ESR_HIERARCHY_BOUND_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "hierarchy/accumulator.h"
#include "obs/trace.h"

namespace esr {

/// One recertification failure: the engine admitted a charge that pushed a
/// hierarchy node past its declared limit. On a correct engine this never
/// happens — the replayers exist to prove that from the trace alone, and to
/// catch it when a bug (or an injected history) breaks the invariant.
struct BoundViolation {
  TxnId txn = 0;
  ChargeDirection direction = ChargeDirection::kImport;
  /// Violated hierarchy node (GroupId) and its depth (0 = root).
  uint64_t group = 0;
  uint16_t level = 0;
  /// Interval during which the node sat above its limit: from the
  /// admitting check that crossed it to the transaction's end (or the
  /// last trace event when the end was not captured).
  int64_t ts_begin = 0;
  int64_t ts_end = 0;
  /// Replayed accumulation after the offending charge, vs the limit.
  double accumulated = 0.0;
  double limit = 0.0;
};

/// Incremental replay of Sec. 5.3.1's bottom-up bound-check protocol from a
/// BoundCheck event stream: nodes of a walk buffer until the root (level 0)
/// verdict; an admitted root applies every buffered charge to the replayed
/// accumulators, a reject discards the walk. A violation is an *admitted*
/// node whose replayed accumulation exceeds the limit the event itself
/// declared.
///
/// This is the recertification core of the streaming certifier
/// (StreamCertifier), which certifies live runs and, through
/// CertifySchedule, captured traces (AuditTrace, `esr audit`).
/// Accumulators are keyed per (transaction, direction), so
/// the violation set is invariant under any reordering that preserves each
/// transaction's own event order — the property the schedule-perturbation
/// hunter relies on.
///
/// Truncated traces (ring wraparound) can only under-count accumulation, so
/// a certified verdict on a lossy trace is still sound — lost history never
/// manufactures a false violation.
class BoundWalkReplayer {
 public:
  struct Outcome {
    /// A walk reached its verdict at this event (root admit or any reject).
    bool walk_completed = false;
    /// Index into violations() when this event pushed a node past its limit
    /// for the first time; -1 otherwise. Repeat crossings of an
    /// already-flagged node only raise that violation's recorded peak.
    int new_violation = -1;
  };

  /// Feeds one event, in stream order. kBoundCheck events drive the
  /// replay; kCommit / kAbort release the finished transaction's replay
  /// state (its per-transaction accumulators can never be charged again),
  /// keeping streaming memory proportional to the in-flight population.
  /// All other event types are ignored.
  Outcome OnEvent(const TraceEvent& event);

  size_t walks_replayed() const { return walks_replayed_; }
  size_t charges_applied() const { return charges_applied_; }
  const std::vector<BoundViolation>& violations() const { return violations_; }
  /// Mutable access for callers that resolve ts_end once the stream ends.
  std::vector<BoundViolation>* mutable_violations() { return &violations_; }

 private:
  /// One node of an in-flight walk awaiting its root verdict.
  struct PendingNode {
    uint64_t group = 0;
    uint16_t level = 0;
    int64_t ts = 0;
    double charge = 0.0;
    double limit = 0.0;
  };

  /// Replayed accumulation of one hierarchy node.
  struct NodeSum {
    uint64_t group = 0;
    double sum = 0.0;
    /// Index into violations_ of this node's first crossing, so a node
    /// that stays above its limit yields one violation, not one per
    /// subsequent charge; -1 until it crosses.
    int64_t violation = -1;
  };

  /// One accumulator direction of one transaction: import and export
  /// accumulators have independent bounds.
  struct DirectionState {
    std::vector<PendingNode> pending;
    /// Nodes this direction has charged, in first-charge order. A
    /// transaction charges only the groups on its objects' root paths, a
    /// handful in every schema here, so a linear scan beats hashing.
    std::vector<NodeSum> sums;
  };

  /// All replay state of one live transaction.
  struct TxnState {
    DirectionState direction[2];
  };

  /// The state of `txn`, taken from the pool when it has none.
  TxnState& StateFor(TxnId txn);
  void ReleaseTxn(TxnId txn);

  /// Live transaction -> index into states_. The key is the TxnId alone
  /// (never packed with the direction): traces read from files carry
  /// arbitrary 64-bit ids.
  FlatMap<TxnId, uint32_t> live_;
  /// Pool of per-transaction states; a released state is cleared but
  /// keeps its vectors' capacity for the next transaction, so replay
  /// allocates nothing once the pool covers the in-flight population.
  std::vector<TxnState> states_;
  std::vector<uint32_t> free_states_;
  size_t walks_replayed_ = 0;
  size_t charges_applied_ = 0;
  std::vector<BoundViolation> violations_;
};

}  // namespace esr

#endif  // ESR_HIERARCHY_BOUND_REPLAY_H_
