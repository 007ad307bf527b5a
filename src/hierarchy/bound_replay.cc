#include "hierarchy/bound_replay.h"

#include <algorithm>
#include <cmath>

namespace esr {

BoundWalkReplayer::Outcome BoundWalkReplayer::OnEvent(
    const TraceEvent& event) {
  Outcome outcome;
  if (event.type == TraceEventType::kCommit ||
      event.type == TraceEventType::kAbort) {
    ReleaseTxn(event.txn);
    return outcome;
  }
  if (event.type != TraceEventType::kBoundCheck) return outcome;

  const bool admitted = (event.detail & 1) != 0;
  const int dir = (event.detail >> 1) & 1;
  if (!admitted) {
    // Bottom-up short-circuit: the walk ends at the first reject and
    // nothing is charged.
    if (const uint32_t* index = live_.Find(event.txn)) {
      states_[*index].direction[dir].pending.clear();
    }
    ++walks_replayed_;
    outcome.walk_completed = true;
    return outcome;
  }
  DirectionState& state = StateFor(event.txn).direction[dir];
  state.pending.push_back(PendingNode{event.target, event.level,
                                      event.ts_micros, event.charged,
                                      event.limit});
  if (event.level != 0) return outcome;  // walk still climbing to the root

  for (const PendingNode& node : state.pending) {
    auto sum = std::find_if(
        state.sums.begin(), state.sums.end(),
        [&node](const NodeSum& s) { return s.group == node.group; });
    if (sum == state.sums.end()) {
      state.sums.push_back(NodeSum{node.group});
      sum = state.sums.end() - 1;
    }
    const double next = sum->sum + node.charge;
    const double slack = 1e-9 * std::max(1.0, std::fabs(node.limit)) + 1e-12;
    if (node.limit != kUnbounded && next > node.limit + slack) {
      if (sum->violation < 0) {
        sum->violation = static_cast<int64_t>(violations_.size());
        outcome.new_violation = static_cast<int>(violations_.size());
        BoundViolation v;
        v.txn = event.txn;
        v.direction = static_cast<ChargeDirection>(dir);
        v.group = node.group;
        v.level = node.level;
        v.ts_begin = node.ts;
        v.accumulated = next;
        v.limit = node.limit;
        violations_.push_back(v);
      } else {
        // Still above the limit: remember how far it eventually got.
        BoundViolation& v = violations_[static_cast<size_t>(sum->violation)];
        v.accumulated = std::max(v.accumulated, next);
      }
    }
    sum->sum = next;
    ++charges_applied_;
  }
  state.pending.clear();
  ++walks_replayed_;
  outcome.walk_completed = true;
  return outcome;
}

BoundWalkReplayer::TxnState& BoundWalkReplayer::StateFor(TxnId txn) {
  if (const uint32_t* index = live_.Find(txn)) return states_[*index];
  uint32_t index;
  if (free_states_.empty()) {
    index = static_cast<uint32_t>(states_.size());
    states_.emplace_back();
  } else {
    index = free_states_.back();
    free_states_.pop_back();
  }
  live_.TryEmplace(txn, index);
  return states_[index];
}

void BoundWalkReplayer::ReleaseTxn(TxnId txn) {
  const uint32_t* index = live_.Find(txn);
  if (index == nullptr) return;
  // Once the transaction ends no further charge can reference its
  // accumulators or its violations' dedup entries; the violations
  // themselves stay recorded.
  TxnState& state = states_[*index];
  for (DirectionState& d : state.direction) {
    d.pending.clear();
    d.sums.clear();
  }
  free_states_.push_back(*index);
  live_.Erase(txn);
}

}  // namespace esr
