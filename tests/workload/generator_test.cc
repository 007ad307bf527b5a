#include "workload/generator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

namespace esr {
namespace {

WorkloadSpec DefaultSpec() { return WorkloadSpec{}; }

// Scripts that cover most of a small store and outgrow the default
// 24-op maximum: distinct draws are rejected often and the drawn-object
// set needs more slots than the default spec's.
WorkloadSpec CrowdedSpec() {
  WorkloadSpec spec;
  spec.num_objects = 64;
  spec.hot_set_size = 8;
  spec.query_ops_min = 30;
  spec.query_ops_max = 40;
  spec.query_hot_prob = 0.5;
  return spec;
}

TEST(GeneratorTest, DeterministicGivenSeed) {
  WorkloadGenerator a(DefaultSpec(), 42), b(DefaultSpec(), 42);
  for (int i = 0; i < 50; ++i) {
    const TxnScript sa = a.Next();
    const TxnScript sb = b.Next();
    ASSERT_EQ(sa.type, sb.type);
    ASSERT_EQ(sa.ops.size(), sb.ops.size());
    for (size_t j = 0; j < sa.ops.size(); ++j) {
      EXPECT_EQ(sa.ops[j].object, sb.ops[j].object);
      EXPECT_EQ(sa.ops[j].delta, sb.ops[j].delta);
    }
  }
}

TEST(GeneratorTest, QueryShapeMatchesPaper) {
  WorkloadGenerator gen(DefaultSpec(), 1);
  for (int i = 0; i < 100; ++i) {
    const TxnScript s = gen.NextQuery();
    EXPECT_EQ(s.type, TxnType::kQuery);
    EXPECT_GE(s.num_reads(), 16);
    EXPECT_LE(s.num_reads(), 24);
    EXPECT_EQ(s.num_writes(), 0);  // query ETs are read-only
  }
}

TEST(GeneratorTest, UpdateShapeMatchesPaper) {
  WorkloadGenerator gen(DefaultSpec(), 2);
  for (int i = 0; i < 100; ++i) {
    const TxnScript s = gen.NextUpdate();
    EXPECT_EQ(s.type, TxnType::kUpdate);
    EXPECT_GE(s.ops.size(), 4u);
    EXPECT_LE(s.ops.size(), 8u);
    EXPECT_GE(s.num_reads(), 1);
    EXPECT_GE(s.num_writes(), 1);
  }
}

TEST(GeneratorTest, AverageOpCountsNearPaperFigures) {
  WorkloadGenerator gen(DefaultSpec(), 3);
  double query_ops = 0, update_ops = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    query_ops += static_cast<double>(gen.NextQuery().ops.size());
    update_ops += static_cast<double>(gen.NextUpdate().ops.size());
  }
  EXPECT_NEAR(query_ops / n, 20.0, 0.5);   // "about 20 operations"
  EXPECT_NEAR(update_ops / n, 6.0, 0.25);  // "around 6 operations"
}

TEST(GeneratorTest, WritesDeriveFromEarlierReads) {
  WorkloadGenerator gen(DefaultSpec(), 4);
  for (int i = 0; i < 100; ++i) {
    const TxnScript s = gen.NextUpdate();
    const int64_t reads = s.num_reads();
    for (const ScriptOp& op : s.ops) {
      if (op.kind == ScriptOp::Kind::kWrite) {
        EXPECT_GE(op.source_read, 0);
        EXPECT_LT(op.source_read, reads);
        EXPECT_NE(op.delta, 0);
      }
    }
  }
}

TEST(GeneratorTest, ObjectsWithinTransactionAreDistinct) {
  // One read per object per transaction (Sec. 3.2.1); the generator also
  // keeps write targets distinct from each other.
  for (const WorkloadSpec& spec : {DefaultSpec(), CrowdedSpec()}) {
    WorkloadGenerator gen(spec, 5);
    for (int i = 0; i < 50; ++i) {
      const TxnScript s = gen.NextQuery();
      std::set<ObjectId> seen;
      for (const ScriptOp& op : s.ops) {
        EXPECT_LT(op.object, spec.num_objects);
        EXPECT_TRUE(seen.insert(op.object).second)
            << "duplicate object " << op.object;
      }
    }
  }
}

TEST(GeneratorTest, QueryHotSetSkewApproximatesSpec) {
  WorkloadSpec spec = DefaultSpec();
  spec.query_hot_prob = 0.9;
  WorkloadGenerator gen(spec, 6);
  int64_t hot = 0, total = 0;
  for (int i = 0; i < 500; ++i) {
    for (const ScriptOp& op : gen.NextQuery().ops) {
      hot += op.object < spec.hot_set_size ? 1 : 0;
      ++total;
    }
  }
  // Distinctness truncates the skew (only 20 hot objects exist), so the
  // realized hot fraction sits below the nominal probability but far
  // above uniform (20/1000 = 2%).
  const double frac = static_cast<double>(hot) / static_cast<double>(total);
  EXPECT_GT(frac, 0.6);
}

TEST(GeneratorTest, DeltasHaveMeanMagnitudeW) {
  WorkloadSpec spec = DefaultSpec();
  spec.small_write_delta = 250;
  spec.large_write_delta = 5000;
  spec.large_delta_prob = 0.1;
  WorkloadGenerator gen(spec, 7);
  double sum = 0;
  int64_t n = 0, large = 0;
  for (int i = 0; i < 4000; ++i) {
    for (const ScriptOp& op : gen.NextUpdate().ops) {
      if (op.kind == ScriptOp::Kind::kWrite) {
        const double mag =
            static_cast<double>(op.delta < 0 ? -op.delta : op.delta);
        sum += mag;
        large += mag >= 2500.0 ? 1 : 0;
        ++n;
      }
    }
  }
  // Mixture mean = 0.9 * 250 + 0.1 * 5000 = 725.
  EXPECT_NEAR(sum / static_cast<double>(n), spec.MeanWriteDelta(), 40.0);
  // About 10% of writes are large.
  EXPECT_NEAR(static_cast<double>(large) / static_cast<double>(n), 0.1,
              0.02);
}

TEST(GeneratorTest, MixFollowsQueryFraction) {
  WorkloadSpec spec = DefaultSpec();
  spec.query_fraction = 0.25;
  WorkloadGenerator gen(spec, 8);
  int queries = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    queries += gen.Next().type == TxnType::kQuery ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(queries) / n, 0.25, 0.03);
}

TEST(GeneratorTest, BoundsComeFromSpecLimits) {
  WorkloadSpec spec = DefaultSpec();
  spec.til = 12345;
  spec.tel = 678;
  WorkloadGenerator gen(spec, 9);
  EXPECT_EQ(gen.NextQuery().bounds.transaction_limit(), 12345);
  EXPECT_EQ(gen.NextUpdate().bounds.transaction_limit(), 678);
}

TEST(GeneratorTest, BoundFactoryOverridesLimits) {
  WorkloadSpec spec = DefaultSpec();
  spec.bound_factory = [](TxnType type) {
    return BoundSpec::TransactionOnly(type == TxnType::kQuery ? 7 : 8);
  };
  WorkloadGenerator gen(spec, 10);
  EXPECT_EQ(gen.NextQuery().bounds.transaction_limit(), 7);
  EXPECT_EQ(gen.NextUpdate().bounds.transaction_limit(), 8);
}

TEST(GeneratorTest, MakeLoadProducesRequestedCount) {
  WorkloadGenerator gen(DefaultSpec(), 11);
  EXPECT_EQ(gen.MakeLoad(37).size(), 37u);
}

// FNV-1a over every field of the first 10,000 scripts of a stream.
uint64_t StreamDigest(const WorkloadSpec& spec, uint64_t seed) {
  uint64_t h = 1469598103934665603ull;
  auto add = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  auto add_double = [&add](double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    add(bits);
  };
  WorkloadGenerator gen(spec, seed);
  for (int i = 0; i < 10'000; ++i) {
    const TxnScript s = gen.Next();
    add(static_cast<uint64_t>(s.type));
    add_double(s.bounds.transaction_limit());
    add(s.bounds.num_limits());
    add_double(s.update_import_limit);
    add(s.ops.size());
    for (const ScriptOp& op : s.ops) {
      add(static_cast<uint64_t>(op.kind));
      add(op.object);
      add(static_cast<uint64_t>(static_cast<int64_t>(op.source_read)));
      add(static_cast<uint64_t>(op.delta));
    }
  }
  return h;
}

WorkloadSpec ImportingUpdatesSpec() {
  WorkloadSpec spec;
  spec.update_import_til = 500;
  return spec;
}

WorkloadSpec TwoLevelSpec() {
  WorkloadSpec spec;
  spec.bound_factory = [](TxnType type) {
    const bool query = type == TxnType::kQuery;
    BoundSpec bounds = BoundSpec::TransactionOnly(query ? 40000 : 4000);
    bounds.SetLimit(1, query ? 10000 : 1000);
    return bounds;
  };
  return spec;
}

// The generated load is the simulator's input, so the stream is pinned
// draw for draw: any change to the sampling order moves every figure.
// The first three constants were recorded from the hash-set sampler that
// the in-place path replaced, the crowded one from the linear-scan
// sampler that the drawn-object set replaced.
TEST(GeneratorTest, StreamMatchesGoldenDigest) {
  EXPECT_EQ(StreamDigest(DefaultSpec(), 2026), 0x1277526bb2f876f2ull);
  EXPECT_EQ(StreamDigest(ImportingUpdatesSpec(), 77), 0x6cee895331af08f0ull);
  EXPECT_EQ(StreamDigest(TwoLevelSpec(), 5), 0xc2b29a02bca6a04aull);
  EXPECT_EQ(StreamDigest(CrowdedSpec(), 31), 0x21b4a5efe672ee81ull);
}

void ExpectSameScript(const TxnScript& a, const TxnScript& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.bounds.transaction_limit(), b.bounds.transaction_limit());
  EXPECT_EQ(a.bounds.num_limits(), b.bounds.num_limits());
  EXPECT_EQ(a.bounds.LimitFor(1), b.bounds.LimitFor(1));
  EXPECT_EQ(a.update_import_limit, b.update_import_limit);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
    EXPECT_EQ(a.ops[i].object, b.ops[i].object);
    EXPECT_EQ(a.ops[i].source_read, b.ops[i].source_read);
    EXPECT_EQ(a.ops[i].delta, b.ops[i].delta);
  }
}

TEST(GeneratorTest, InPlaceFillLeavesNothingStale) {
  // One reused script through query -> importing update -> query (and on
  // through the mix) must equal fresh scripts: no leftover ops, bounds
  // or import limit from the previous fill.
  for (const WorkloadSpec& spec : {ImportingUpdatesSpec(), TwoLevelSpec()}) {
    WorkloadGenerator fresh(spec, 12), in_place(spec, 12);
    TxnScript reused;
    bool saw_query_after_update = false;
    TxnType previous = TxnType::kQuery;
    for (int i = 0; i < 200; ++i) {
      in_place.Next(&reused);
      ExpectSameScript(reused, fresh.Next());
      saw_query_after_update |=
          previous == TxnType::kUpdate && reused.type == TxnType::kQuery;
      previous = reused.type;
    }
    EXPECT_TRUE(saw_query_after_update);
  }
  // The explicit sequence, with the import limit set on the update only.
  WorkloadGenerator fresh(ImportingUpdatesSpec(), 13);
  WorkloadGenerator in_place(ImportingUpdatesSpec(), 13);
  TxnScript reused;
  reused.ops.resize(40);  // stale ops must not survive a fill
  for (int i = 0; i < 200; ++i) {
    in_place.Next(&reused);
    const TxnScript want = fresh.Next();
    ExpectSameScript(reused, want);
    EXPECT_EQ(reused.update_import_limit,
              reused.type == TxnType::kUpdate ? 500 : 0);
  }
}

TEST(ApplyDeltaTest, StaysInRangeAndReflects) {
  EXPECT_EQ(ApplyDeltaReflecting(5000, 200, 1000, 9999), 5200);
  EXPECT_EQ(ApplyDeltaReflecting(5000, -200, 1000, 9999), 4800);
  // Reflection at the top edge: 9900 + 300 = 10200 -> 9999 - 201 = 9798.
  EXPECT_EQ(ApplyDeltaReflecting(9900, 300, 1000, 9999), 9798);
  // Reflection at the bottom edge: 1100 - 300 = 800 -> 1000 + 200 = 1200.
  EXPECT_EQ(ApplyDeltaReflecting(1100, -300, 1000, 9999), 1200);
}

TEST(ApplyDeltaTest, ExtremeDeltasStillClamped) {
  const Value v = ApplyDeltaReflecting(5000, 100000, 1000, 9999);
  EXPECT_GE(v, 1000);
  EXPECT_LE(v, 9999);
}

}  // namespace
}  // namespace esr
