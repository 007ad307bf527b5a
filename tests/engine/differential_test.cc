// Differential test: a reference TO engine (tests/engine/
// reference_to_engine.h, one monolithic store, no latches or pooling) and
// the production engine, a one-shard ShardedEngine, run the same seeded,
// interleaved, single-threaded schedule and must agree on every
// operation. With one shard the sharded engine's local ids are the global
// ids and its store is seeded with the base seed, so both engines start
// from identical databases; any difference in an OpResult, an accumulator
// total, a counter, the final database total or (in a tracing build) a
// transaction's trace-event stream is a divergence between the two
// engines' Fig. 3 paths.
//
// The schedule: 12 transaction slots over a hot set, queries and updates
// with two-level bounds (some plain SR), randomized OIL/OEL, repeated
// reads (objects are drawn with replacement), waits, late operations and
// client aborts. The sharded side is driven through Read/Write and
// through multi-op ExecuteBatch calls. A batch defers abort teardown
// until its last op, so a batch only takes ops that cannot observe an
// earlier batch member's teardown (objects outside that member's write
// and reader-registration sets); within that rule both engines must
// still agree op by op. The same deferral reorders trace events across
// a batch's transactions, so traces are compared per transaction.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/reference_to_engine.h"
#include "engine/sharded/sharded_engine.h"
#include "obs/trace.h"

namespace esr {
namespace {

constexpr size_t kObjects = 64;
constexpr int64_t kHotSet = 8;
constexpr size_t kSlots = 12;
constexpr size_t kGroups = 4;
constexpr size_t kMaxBatch = 4;

/// The abort reasons an operation (not the client) can cause in the TO
/// protocol.
constexpr std::array<AbortReason, 6> kOpAbortReasons = {
    AbortReason::kLateRead,          AbortReason::kLateWrite,
    AbortReason::kObjectBound,       AbortReason::kGroupBound,
    AbortReason::kTransactionBound,  AbortReason::kHistoryExhausted,
};

struct DiffConfig {
  uint64_t seed;
  size_t history_depth;
  int steps;
};

struct ScriptOp {
  ObjectId object = kInvalidObjectId;
  bool is_write = false;
  Value value = 0;
};

struct Slot {
  TxnId txn = kInvalidTxnId;
  std::vector<ScriptOp> ops;
  size_t next = 0;
};

std::string Describe(const OpResult& r) {
  std::ostringstream out;
  out << "{kind " << static_cast<int>(r.kind) << ", value " << r.value
      << ", blocker " << r.blocker << ", reason "
      << AbortReasonToString(r.abort_reason) << ", d " << r.inconsistency
      << ", relaxed " << r.relaxed << "}";
  return out.str();
}

bool SameResult(const OpResult& a, const OpResult& b) {
  return a.kind == b.kind && a.value == b.value && a.blocker == b.blocker &&
         a.abort_reason == b.abort_reason &&
         a.inconsistency == b.inconsistency && a.relaxed == b.relaxed;
}

/// The trace-event fields both engines must emit identically: kind and
/// discriminator, transaction, object or group, step-clock time,
/// hierarchy level, site, flow/wait linkage, charged amount and limit
/// (the direction rides in `detail`).
bool SameEvent(const TraceEvent& a, const TraceEvent& b) {
  return a.type == b.type && a.detail == b.detail && a.level == b.level &&
         a.site == b.site && a.txn == b.txn && a.ts_micros == b.ts_micros &&
         a.target == b.target && a.span == b.span && a.parent == b.parent &&
         a.charged == b.charged && a.limit == b.limit;
}

std::string Describe(const TraceEvent& e) {
  std::ostringstream out;
  out << "{" << TraceEventTypeToString(e.type) << " detail "
      << static_cast<int>(e.detail) << ", level " << e.level << ", site "
      << e.site << ", txn " << e.txn << ", ts " << e.ts_micros
      << ", target " << e.target << ", span " << e.span << ", parent "
      << e.parent << ", charged " << e.charged << ", limit " << e.limit
      << "}";
  return out.str();
}

/// Both engines plus the schedule state driving them in lockstep.
class Lockstep {
 public:
  explicit Lockstep(const DiffConfig& config)
      : rng_(config.seed),
        store_(StoreOptions(config)),
        to_(&store_, &schema_, &to_metrics_),
        sharded_(ShardedOptions(), StoreOptions(config), &schema_,
                 &sharded_metrics_) {
#ifndef ESR_TRACE_DISABLED
    // Observe every kind without capture: no ring, no spans; events are
    // stamped with the step counter so both engines' streams line up.
    clock_source_.emplace(&StepClock, this);
    observer_.emplace(&Observe, this, kAllTraceKinds);
#endif
  }

  static ObjectStoreOptions StoreOptions(const DiffConfig& config) {
    ObjectStoreOptions options;
    options.num_objects = kObjects;
    options.history_depth = config.history_depth;
    options.min_oil = 1000;
    options.max_oil = 6000;
    options.min_oel = 1000;
    options.max_oel = 6000;
    options.seed = config.seed;
    return options;
  }

  static ShardedEngineOptions ShardedOptions() {
    ShardedEngineOptions options;
    options.num_shards = 1;
    return options;
  }

  /// Two-level hierarchy: root, then kGroups groups striping the objects.
  static GroupSchema MakeSchema() {
    GroupSchema schema;
    std::vector<GroupId> groups;
    for (size_t g = 0; g < kGroups; ++g) {
      groups.push_back(*schema.AddGroup("g" + std::to_string(g), kRootGroup));
    }
    for (ObjectId id = 0; id < kObjects; ++id) {
      EXPECT_TRUE(schema.AssignObject(id, groups[id % kGroups]).ok());
    }
    return schema;
  }

  /// Advances one slot: begin, one op, or finish. False on a divergence.
  bool Step() {
    ++steps_;
    bool ok;
    if (rng_.Bernoulli(0.25)) {
      ok = StepBatch();
    } else {
      Slot& slot = slots_[rng_.UniformInt(0, kSlots - 1)];
      if (slot.txn == kInvalidTxnId) {
        ok = BeginSlot(slot);
      } else if (slot.next == slot.ops.size()) {
        ok = FinishSlot(slot);
      } else {
        ok = RunOp(slot);
      }
    }
    return ok && SameTraces();
  }

  /// Runs every open transaction to its end. False on a divergence.
  bool Drain() {
    for (int round = 0; round < 10000; ++round) {
      bool open = false;
      for (Slot& slot : slots_) {
        if (slot.txn == kInvalidTxnId) continue;
        open = true;
        ++steps_;
        const bool ok =
            slot.next == slot.ops.size() ? FinishSlot(slot) : RunOp(slot);
        if (!ok || !SameTraces()) return false;
      }
      if (!open) return true;
    }
    ADD_FAILURE() << "schedule did not drain";
    return false;
  }

  /// End-of-run agreement: counters, database totals, nothing left open.
  void ExpectSameEndState() {
    EXPECT_EQ(to_.num_active(), 0u);
    EXPECT_EQ(sharded_.num_active(), 0u);
    for (size_t r = 0; r < kNumAbortReasons; ++r) {
      const std::string name =
          std::string("abort.") +
          AbortReasonToString(static_cast<AbortReason>(r));
      EXPECT_EQ(to_metrics_.counter(name).value(),
                sharded_metrics_.counter(name).value())
          << name;
    }
    for (const char* name :
         {"txn.abort", "txn.commit.query", "txn.commit.update", "op.read",
          "op.write", "op.wait", "op.inconsistent_ok"}) {
      EXPECT_EQ(to_metrics_.counter(name).value(),
                sharded_metrics_.counter(name).value())
          << name;
    }
    EXPECT_EQ(store_.TotalValue(), sharded_.TotalValue());
  }

  int64_t aborts(AbortReason reason) {
    return to_metrics_
        .counter(std::string("abort.") + AbortReasonToString(reason))
        .value();
  }
  int64_t traced_events() const { return traced_events_; }
  int64_t direct_ops() const { return direct_ops_; }
  int64_t batched_ops() const { return batched_ops_; }
  int64_t multi_op_batches() const { return multi_op_batches_; }

 private:
  static int64_t StepClock(void* ctx) {
    return static_cast<const Lockstep*>(ctx)->steps_;
  }
  static void Observe(void* ctx, const TraceEvent& event) {
    auto* self = static_cast<Lockstep*>(ctx);
    (self->on_sharded_ ? self->sharded_events_ : self->to_events_)
        .push_back(event);
  }
  /// Routes the trace events of the calls that follow to the reference
  /// (false) or the sharded engine's (true) stream.
  void Route(bool sharded) { on_sharded_ = sharded; }

  /// Compares this step's two event streams transaction by transaction
  /// (order within each transaction must match), then clears them.
  bool SameTraces() {
    std::map<TxnId, std::vector<const TraceEvent*>> a;
    std::map<TxnId, std::vector<const TraceEvent*>> b;
    for (const TraceEvent& e : to_events_) a[e.txn].push_back(&e);
    for (const TraceEvent& e : sharded_events_) b[e.txn].push_back(&e);
    bool same = a.size() == b.size();
    for (auto ia = a.begin(), ib = b.begin();
         same && ia != a.end(); ++ia, ++ib) {
      same = ia->first == ib->first && ia->second.size() == ib->second.size();
      for (size_t i = 0; same && i < ia->second.size(); ++i) {
        same = SameEvent(*ia->second[i], *ib->second[i]);
      }
    }
    if (!same) {
      std::ostringstream out;
      out << "trace streams differ at step " << steps_ << "\nreference:";
      for (const TraceEvent& e : to_events_) out << "\n  " << Describe(e);
      out << "\nsharded:";
      for (const TraceEvent& e : sharded_events_) out << "\n  " << Describe(e);
      ADD_FAILURE() << out.str();
    }
    traced_events_ += static_cast<int64_t>(to_events_.size());
    to_events_.clear();
    sharded_events_.clear();
    return same;
  }

  BoundSpec RandomBounds() {
    if (rng_.Bernoulli(0.15)) return BoundSpec::TransactionOnly(0);  // SR
    BoundSpec bounds = BoundSpec::TransactionOnly(
        static_cast<Inconsistency>(rng_.UniformInt(2000, 20000)));
    for (GroupId g = 1; g <= kGroups; ++g) {
      if (rng_.Bernoulli(0.7)) {
        bounds.SetLimit(
            g, static_cast<Inconsistency>(rng_.UniformInt(1000, 8000)));
      }
    }
    return bounds;
  }

  ObjectId RandomObject() {
    return static_cast<ObjectId>(
        rng_.Bernoulli(0.7) ? rng_.UniformInt(0, kHotSet - 1)
                            : rng_.UniformInt(0, kObjects - 1));
  }

  bool BeginSlot(Slot& slot) {
    const TxnType type =
        rng_.Bernoulli(0.5) ? TxnType::kQuery : TxnType::kUpdate;
    const BoundSpec bounds = RandomBounds();
    const Timestamp ts{++clock_, 0};
    Route(false);
    const TxnId a = to_.Begin(type, ts, bounds);
    Route(true);
    const TxnId b = sharded_.Begin(type, ts, bounds);
    if (a != b) {
      ADD_FAILURE() << "Begin ids differ: " << a << " vs " << b;
      return false;
    }
    slot.txn = a;
    slot.next = 0;
    slot.ops.clear();
    const int64_t length = rng_.UniformInt(2, 7);
    for (int64_t i = 0; i < length; ++i) {
      ScriptOp op;
      op.object = RandomObject();
      op.is_write = type == TxnType::kUpdate && rng_.Bernoulli(0.5);
      op.value = static_cast<Value>(rng_.UniformInt(1000, 9999));
      slot.ops.push_back(op);
    }
    return true;
  }

  bool FinishSlot(Slot& slot) {
    const bool commit = rng_.Bernoulli(0.95);
    Route(false);
    const Status a = commit ? to_.Commit(slot.txn) : to_.Abort(slot.txn);
    Route(true);
    const Status b =
        commit ? sharded_.Commit(slot.txn) : sharded_.Abort(slot.txn);
    slot.txn = kInvalidTxnId;
    if (a.ok() != b.ok()) {
      ADD_FAILURE() << "finish status differs";
      return false;
    }
    return true;
  }

  OpResult RunTo(const Slot& slot) {
    Route(false);
    const ScriptOp& op = slot.ops[slot.next];
    return op.is_write ? to_.Write(slot.txn, op.object, op.value)
                       : to_.Read(slot.txn, op.object);
  }

  bool RunOp(Slot& slot) {
    const ScriptOp& op = slot.ops[slot.next];
    const OpResult a = RunTo(slot);
    Route(true);
    const OpResult b = op.is_write
                           ? sharded_.Write(slot.txn, op.object, op.value)
                           : sharded_.Read(slot.txn, op.object);
    ++direct_ops_;
    return Compare(slot, a, b);
  }

  /// Collects up to kMaxBatch ops of distinct open transactions that no
  /// earlier member's deferred teardown could touch, runs them one by
  /// one through TO and as one ExecuteBatch through the sharded engine.
  bool StepBatch() {
    std::vector<Slot*> members;
    std::vector<ObjectId> held;  // objects earlier members' teardown touches
    const size_t start = static_cast<size_t>(rng_.UniformInt(0, kSlots - 1));
    for (size_t k = 0; k < kSlots && members.size() < kMaxBatch; ++k) {
      Slot& slot = slots_[(start + k) % kSlots];
      if (slot.txn == kInvalidTxnId || slot.next == slot.ops.size()) continue;
      const ObjectId object = slot.ops[slot.next].object;
      if (std::find(held.begin(), held.end(), object) != held.end()) continue;
      const Transaction* t = to_.Find(slot.txn);
      held.insert(held.end(), t->pending_writes().begin(),
                  t->pending_writes().end());
      held.insert(held.end(), t->registered_reads().begin(),
                  t->registered_reads().end());
      held.push_back(object);
      members.push_back(&slot);
    }
    if (members.empty()) return true;
    batch_.reqs.clear();
    for (const Slot* slot : members) {
      const ScriptOp& op = slot->ops[slot->next];
      batch_.reqs.push_back(OpRequest{slot->txn, op.object, op.is_write,
                                      op.is_write ? op.value : 0});
    }
    std::vector<OpResult> expected;
    for (const Slot* slot : members) expected.push_back(RunTo(*slot));
    Route(true);
    sharded_.ExecuteBatch(batch_);
    batched_ops_ += static_cast<int64_t>(members.size());
    if (members.size() > 1) ++multi_op_batches_;
    for (size_t i = 0; i < members.size(); ++i) {
      if (!Compare(*members[i], expected[i], batch_.results[i])) return false;
    }
    return true;
  }

  /// Checks one op's verdicts agree, then advances the slot.
  bool Compare(Slot& slot, const OpResult& a, const OpResult& b) {
    const ScriptOp& op = slot.ops[slot.next];
    if (!SameResult(a, b)) {
      ADD_FAILURE() << "txn " << slot.txn << (op.is_write ? " write " : " read ")
                    << op.object << ": TO " << Describe(a) << " vs sharded "
                    << Describe(b);
      return false;
    }
    switch (a.kind) {
      case OpResult::Kind::kWait:
        return true;  // retried on a later turn
      case OpResult::Kind::kAbort:
        slot.txn = kInvalidTxnId;
        return true;
      case OpResult::Kind::kOk:
        break;
    }
    const Transaction* ta = to_.Find(slot.txn);
    const Transaction* tb = sharded_.Find(slot.txn);
    if (ta->accumulator().total() != tb->accumulator().total()) {
      ADD_FAILURE() << "txn " << slot.txn << " accumulator "
                    << ta->accumulator().total() << " vs "
                    << tb->accumulator().total();
      return false;
    }
    ++slot.next;
    return true;
  }

  Rng rng_;
  GroupSchema schema_ = MakeSchema();
  ObjectStore store_;
  MetricRegistry to_metrics_;
  MetricRegistry sharded_metrics_;
  testing::ReferenceToEngine to_;
  ShardedEngine sharded_;
  int64_t steps_ = 0;
  bool on_sharded_ = false;
  std::vector<TraceEvent> to_events_;
  std::vector<TraceEvent> sharded_events_;
  int64_t traced_events_ = 0;
  std::optional<ScopedTraceTimeSource> clock_source_;
  std::optional<ScopedTraceObserver> observer_;
  std::array<Slot, kSlots> slots_;
  OpBatch batch_;
  int64_t clock_ = 0;
  int64_t direct_ops_ = 0;
  int64_t batched_ops_ = 0;
  int64_t multi_op_batches_ = 0;
};

TEST(EngineDifferentialTest, ToAndOneShardShardedAgreeOpByOp) {
  const DiffConfig configs[] = {
      {1, WriteHistory::kDefaultDepth, 40000},
      {2, WriteHistory::kDefaultDepth, 40000},
      {3, WriteHistory::kDefaultDepth, 40000},
      // A shallow history: old queries outlive it (kHistoryExhausted).
      {4, 1, 40000},
  };
  std::array<int64_t, kOpAbortReasons.size()> seen{};
  int64_t direct = 0;
  int64_t batched = 0;
  int64_t multi = 0;
  int64_t traced = 0;
  for (const DiffConfig& config : configs) {
    SCOPED_TRACE("seed " + std::to_string(config.seed) + ", history " +
                 std::to_string(config.history_depth));
    auto run = std::make_unique<Lockstep>(config);
    bool agreed = true;
    for (int i = 0; i < config.steps && agreed; ++i) agreed = run->Step();
    agreed = agreed && run->Drain();
    ASSERT_TRUE(agreed);
    run->ExpectSameEndState();
    for (size_t r = 0; r < kOpAbortReasons.size(); ++r) {
      seen[r] += run->aborts(kOpAbortReasons[r]);
    }
    direct += run->direct_ops();
    batched += run->batched_ops();
    multi += run->multi_op_batches();
    traced += run->traced_events();
  }
  // The schedules must reach every op-path abort and both entry points,
  // or agreement proves little.
  for (size_t r = 0; r < kOpAbortReasons.size(); ++r) {
    EXPECT_GT(seen[r], 0) << AbortReasonToString(kOpAbortReasons[r]);
  }
  EXPECT_GT(direct, 0);
  EXPECT_GT(batched, 0);
  EXPECT_GT(multi, 0);
#ifndef ESR_TRACE_DISABLED
  EXPECT_GT(traced, 0);
#else
  EXPECT_EQ(traced, 0);
#endif
}

}  // namespace
}  // namespace esr
