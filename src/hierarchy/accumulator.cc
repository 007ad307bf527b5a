#include "hierarchy/accumulator.h"

#include <string>

#include "common/logging.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace esr {

Counter* BoundCheckStats::Slot(std::vector<Counter*>& slots, size_t depth,
                               const char* suffix) {
  if (depth >= slots.size()) slots.resize(depth + 1, nullptr);
  if (slots[depth] == nullptr) {
    slots[depth] = &metrics_->counter("bound_check.level" +
                                      std::to_string(depth) + suffix);
  }
  return slots[depth];
}

void BoundCheckStats::Count(size_t depth, bool admitted) {
  if (metrics_ == nullptr) return;
  Counter* c = admitted ? Slot(admit_, depth, ".admit")
                        : Slot(reject_, depth, ".reject");
  c->Increment();
}

const char* ChargeDirectionToString(ChargeDirection direction) {
  return direction == ChargeDirection::kExport ? "export" : "import";
}

void NodeHeadroomTracker::AtomicMax(std::atomic<uint64_t>& slot,
                                    double value) {
  uint64_t cur = slot.load(std::memory_order_relaxed);
  // Bit-pattern CAS loop: compare as doubles (headroom can be negative, so
  // the nonnegative-IEEE-orders-as-uint64 trick does not apply).
  while (value > FromBits(cur)) {
    if (slot.compare_exchange_weak(cur, Bits(value),
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

bool NodeHeadroomTracker::AtomicMin(std::atomic<uint64_t>& slot,
                                    double value) {
  uint64_t cur = slot.load(std::memory_order_relaxed);
  while (value < FromBits(cur)) {
    if (slot.compare_exchange_weak(cur, Bits(value),
                                   std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

NodeHeadroomTracker::NodeSample NodeHeadroomTracker::WindowSample(
    GroupId group) const {
  NodeSample sample;
  if (group >= slots_.size()) return sample;
  const Slot& slot = slots_[group];
  sample.max_accumulated =
      FromBits(slot.max_accumulated.load(std::memory_order_relaxed));
  sample.min_headroom_frac =
      FromBits(slot.min_headroom_frac.load(std::memory_order_relaxed));
  sample.limit_at_min =
      FromBits(slot.limit_at_min.load(std::memory_order_relaxed));
  sample.charges = slot.charges.load(std::memory_order_relaxed);
  return sample;
}

void NodeHeadroomTracker::StartWindow() {
  for (Slot& slot : slots_) {
    slot.max_accumulated.store(Bits(0.0), std::memory_order_relaxed);
    slot.min_headroom_frac.store(Bits(1.0), std::memory_order_relaxed);
    slot.limit_at_min.store(Bits(0.0), std::memory_order_relaxed);
    slot.charges.store(0, std::memory_order_relaxed);
  }
}

InconsistencyAccumulator::InconsistencyAccumulator(const GroupSchema* schema,
                                                   BoundSpec bounds,
                                                   ChargeDirection direction)
    : schema_(schema), bounds_(std::move(bounds)), direction_(direction) {
  ESR_CHECK(schema_ != nullptr);
  accumulated_.assign(schema_->num_groups(), 0.0);
}

ChargeResult InconsistencyAccumulator::Check(ObjectId object,
                                             Inconsistency d) const {
  ESR_CHECK(d >= 0.0) << "negative inconsistency";
  if (d == 0.0) return ChargeResult{true, kInvalidGroup};
  GroupId g = schema_->GroupOf(object);
  while (true) {
    const Inconsistency charge = d * schema_->weight(g);
    if (accumulated_[g] + charge > bounds_.LimitFor(g)) {
      return ChargeResult{false, g};
    }
    if (g == kRootGroup) break;
    g = schema_->parent(g);
  }
  return ChargeResult{true, kInvalidGroup};
}

// The walk body is stamped out twice so the untraced instantiation is
// instruction-identical to an ESR_TRACE_DISABLED build: TryCharge sits on
// every relaxed read's critical path, where even a dead per-node branch
// on a register bool is measurable.
template <bool kTraced>
ChargeResult InconsistencyAccumulator::TryChargeImpl(ObjectId object,
                                                     Inconsistency d,
                                                     BoundCheckStats* stats,
                                                     TxnId txn, SiteId site) {
  ESR_CHECK(d >= 0.0) << "negative inconsistency";
  // One probe times the walk (the kBoundWalk phase, whenever the
  // profiler is on: the threaded server, perfbench's traced pass) and,
  // under capture, gives it its own causal span, so every BoundCheck
  // instant below attaches to it and Perfetto shows the walk's cost
  // inside the op. Capture implies the traced instantiation, so the
  // untraced one never tests for the span. Closed, the probe costs one
  // relaxed load and a predicted branch; ESR_TRACE_DISABLED compiles it
  // out entirely.
  Probe walk(ProfilePhase::kBoundWalk);
  if constexpr (kTraced) {
    walk.OpenSpan(SpanKind::kBoundWalk, txn, site, object);
  }
  // Depth of the object's group below the root, for per-level
  // attribution; skipped entirely on the unobserved fast path.
  size_t leaf_depth = 0;
  if (stats != nullptr || kTraced) {
    for (GroupId g = schema_->GroupOf(object); g != kRootGroup;
         g = schema_->parent(g)) {
      ++leaf_depth;
    }
  }

  // Check pass, bottom-up (Sec. 5.3.1): stop at the first rejecting node.
  ChargeResult result{true, kInvalidGroup};
  GroupId g = schema_->GroupOf(object);
  size_t depth = leaf_depth;
  while (true) {
    const Inconsistency charge = d * schema_->weight(g);
    const Inconsistency limit = bounds_.LimitFor(g);
    const bool admitted = accumulated_[g] + charge <= limit;
    if (stats != nullptr) stats->Count(depth, admitted);
    if constexpr (kTraced) {
      TraceEvent check = TraceEvent::BoundCheck(
          txn, site, static_cast<uint16_t>(depth), g, charge, limit,
          admitted);
      // detail bit 0 = admitted, bit 1 = direction; the auditor replays
      // each accumulator (import vs export) separately.
      check.detail |= static_cast<uint8_t>(direction_) << 1;
      GlobalTrace().Record(check);
    }
    if (!admitted) {
      result = ChargeResult{false, g};
      break;
    }
    if (g == kRootGroup) break;
    g = schema_->parent(g);
    --depth;
  }
#ifndef ESR_TRACE_DISABLED
  // Charge-path contention site: one acquisition per walk, a conflict per
  // bound rejection (blamed on the rejected transaction — with a single
  // accumulator per txn there is no holder to blame). Cold branch; the
  // function-local static resolves the site once per process.
  if (GlobalProfilerEnabled()) {
    static ContentionSite* const charge_site =
        GlobalProfiler().site("hierarchy.charge_path");
    charge_site->RecordAcquisition();
    if (!result.admitted) charge_site->RecordConflict(txn);
  }
#endif
  if (!result.admitted) return result;

  // Charge pass: every check admitted, so increment the whole path.
  g = schema_->GroupOf(object);
  while (true) {
    accumulated_[g] += d * schema_->weight(g);
#ifndef ESR_TRACE_DISABLED
    // Headroom probe: one predicted-null branch when no tracker is
    // attached; compiled out with the rest of the tracing layer.
    if (tracker_ != nullptr) {
      tracker_->Observe(g, accumulated_[g], bounds_.LimitFor(g));
    }
#endif
    if (g == kRootGroup) break;
    g = schema_->parent(g);
  }
  return result;
}

template ChargeResult InconsistencyAccumulator::TryChargeImpl<true>(
    ObjectId object, Inconsistency d, BoundCheckStats* stats, TxnId txn,
    SiteId site);
template ChargeResult InconsistencyAccumulator::TryChargeImpl<false>(
    ObjectId object, Inconsistency d, BoundCheckStats* stats, TxnId txn,
    SiteId site);

Inconsistency InconsistencyAccumulator::accumulated(GroupId group) const {
  ESR_CHECK(schema_->Contains(group));
  return accumulated_[group];
}

Inconsistency InconsistencyAccumulator::Headroom() const {
  const Inconsistency limit = bounds_.transaction_limit();
  if (limit == kUnbounded) return kUnbounded;
  const Inconsistency room = limit - total();
  return room > 0.0 ? room : 0.0;
}

}  // namespace esr
