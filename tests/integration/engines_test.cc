// Cross-engine integration tests: the same transfer/sum workload driven
// through TO-ESR, 2PL-ESR (wait-die), and MVTO via the shared
// TransactionEngine interface, checking each protocol's characteristic
// guarantee, plus full simulated-cluster runs for every engine.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "engine/sharded/sharded_engine.h"
#include "esr/limits.h"
#include "mvto/mvto_manager.h"
#include "sim/cluster.h"
#include "testing/scripted_client.h"
#include "testing/test_util.h"
#include "twopl/twopl_manager.h"

namespace esr {
namespace {

using testing::ScriptedClient;

constexpr size_t kObjects = 12;

/// Engine-agnostic harness: owns whichever engine the param names, seeds
/// deterministic values, and exposes the invariant total.
class EngineHarness {
 public:
  EngineHarness(EngineKind kind, size_t num_objects)
      : kind_(kind),
        store_(testing::EngineFixture::StoreOptions(num_objects, 64)) {
    switch (kind) {
      case EngineKind::kTimestampOrdering:
        // The production TO engine: the sharded engine with one shard.
        engine_ = std::make_unique<ShardedEngine>(
            testing::OneShard(),
            testing::EngineFixture::StoreOptions(num_objects, 64), &schema_,
            &metrics_);
        break;
      case EngineKind::kTwoPhaseLocking:
        engine_ = std::make_unique<TwoPLManager>(&store_, &schema_,
                                                 &metrics_);
        break;
      case EngineKind::kMultiversion:
        engine_ = std::make_unique<MvtoManager>(
            testing::EngineFixture::StoreOptions(num_objects, 64), &schema_,
            &metrics_);
        break;
      case EngineKind::kSharded: {
        // Same protocol as TO-ESR behind per-shard latches and group
        // commit; single-threaded it must honor the same guarantees.
        ShardedEngineOptions sharded;
        sharded.num_shards = 4;
        engine_ = std::make_unique<ShardedEngine>(
            sharded, testing::EngineFixture::StoreOptions(num_objects, 64),
            &schema_, &metrics_);
        break;
      }
    }
  }

  TransactionEngine& engine() { return *engine_; }

  Value TotalCommitted() {
    if (kind_ == EngineKind::kSharded ||
        kind_ == EngineKind::kTimestampOrdering) {
      return static_cast<ShardedEngine&>(*engine_).TotalValue();
    }
    Value total = 0;
    for (ObjectId id = 0; id < kObjects; ++id) {
      if (kind_ == EngineKind::kMultiversion) {
        total += static_cast<MvtoManager&>(*engine_)
                     .store()
                     .Get(id)
                     .LatestCommittedValue();
      } else {
        total += store_.Get(id).value();
      }
    }
    return total;
  }

  EngineKind kind() const { return kind_; }

 private:
  EngineKind kind_;
  ObjectStore store_;
  GroupSchema schema_;
  MetricRegistry metrics_;
  std::unique_ptr<TransactionEngine> engine_;
};

class EngineGuaranteeTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineGuaranteeTest, TransfersPreserveTotalsAndQueriesAreBounded) {
  EngineHarness harness(GetParam(), kObjects);
  const Value total0 = harness.TotalCommitted();
  constexpr Inconsistency kTil = 2000.0;

  std::vector<std::unique_ptr<ScriptedClient>> clients;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<ScriptedClient>(
        &harness.engine(), kObjects, static_cast<SiteId>(i + 1),
        /*is_query=*/true, kTil, 31 + static_cast<uint64_t>(i)));
  }
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<ScriptedClient>(
        &harness.engine(), kObjects, static_cast<SiteId>(i + 10),
        /*is_query=*/false, /*limit=*/0.0, 57 + static_cast<uint64_t>(i)));
  }

  Rng scheduler(99);
  for (int step = 0; step < 30000; ++step) {
    clients[static_cast<size_t>(
                scheduler.UniformInt(0,
                                     static_cast<int64_t>(clients.size()) -
                                         1))]
        ->Step();
  }
  for (auto& client : clients) client->StartDraining();
  for (int step = 0; step < 8000; ++step) {
    for (auto& client : clients) client->Step();
  }

  // Recovery correctness holds for every engine.
  EXPECT_EQ(harness.engine().num_active(), 0u);
  EXPECT_EQ(harness.TotalCommitted(), total0);

  int64_t query_commits = 0;
  for (const auto& client : clients) {
    for (const auto& outcome : client->outcomes()) {
      ++query_commits;
      if (GetParam() == EngineKind::kMultiversion) {
        // MVTO queries read a serializable snapshot: exact answers.
        EXPECT_EQ(outcome.sum, total0);
        EXPECT_EQ(outcome.imported, 0.0);
      } else {
        // ESR engines: within the imported inconsistency of T0, within
        // TIL.
        EXPECT_LE(std::llabs(outcome.sum - total0),
                  static_cast<int64_t>(outcome.imported) + 1);
        EXPECT_LE(outcome.imported, kTil);
      }
    }
  }
  EXPECT_GT(query_commits, 5);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineGuaranteeTest,
    ::testing::Values(EngineKind::kTimestampOrdering,
                      EngineKind::kTwoPhaseLocking,
                      EngineKind::kMultiversion, EngineKind::kSharded),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      switch (info.param) {
        case EngineKind::kTimestampOrdering:
          return std::string("ToEsr");
        case EngineKind::kTwoPhaseLocking:
          return std::string("TwoPlEsr");
        case EngineKind::kMultiversion:
          return std::string("Mvto");
        case EngineKind::kSharded:
          return std::string("Sharded");
      }
      return std::string("Unknown");
    });

// ----------------------------------------------------- cluster runs --

ClusterOptions EngineClusterOptions(EngineKind engine, EpsilonLevel level,
                                    uint64_t seed) {
  ClusterOptions opt;
  opt.mpl = 5;
  const TransactionLimits limits = LimitsForLevel(level);
  opt.workload.til = limits.til;
  opt.workload.tel = limits.tel;
  opt.server.engine = engine;
  opt.warmup_s = 2.0;
  opt.measure_s = 25.0;
  opt.seed = seed;
  return opt;
}

TEST(EngineClusterTest, AllEnginesMakeProgressUnderContention) {
  for (EngineKind engine :
       {EngineKind::kTimestampOrdering, EngineKind::kTwoPhaseLocking,
        EngineKind::kMultiversion, EngineKind::kSharded}) {
    const SimResult r = RunCluster(
        EngineClusterOptions(engine, EpsilonLevel::kHigh, 5));
    EXPECT_GT(r.committed, 100) << EngineKindToString(engine);
    EXPECT_GT(r.committed_query, 0) << EngineKindToString(engine);
    EXPECT_GT(r.committed_update, 0) << EngineKindToString(engine);
  }
}

TEST(EngineClusterTest, MvtoQueriesNeverViewInconsistency) {
  const SimResult r = RunCluster(
      EngineClusterOptions(EngineKind::kMultiversion, EpsilonLevel::kHigh,
                           7));
  EXPECT_EQ(r.inconsistent_ops, 0);
  EXPECT_EQ(r.import_total, 0.0);
}

TEST(EngineClusterTest, TwoPlEsrBeatsTwoPlSr) {
  const SimResult sr = RunCluster(
      EngineClusterOptions(EngineKind::kTwoPhaseLocking,
                           EpsilonLevel::kZero, 9));
  const SimResult esr = RunCluster(
      EngineClusterOptions(EngineKind::kTwoPhaseLocking,
                           EpsilonLevel::kHigh, 9));
  // Divergence control pays off under 2PL exactly as under TO.
  EXPECT_GT(esr.throughput(), sr.throughput() * 1.1);
  EXPECT_GT(esr.inconsistent_ops, 0);
  EXPECT_EQ(sr.inconsistent_ops, 0);
}

TEST(EngineClusterTest, DeterministicPerEngine) {
  for (EngineKind engine :
       {EngineKind::kTwoPhaseLocking, EngineKind::kMultiversion}) {
    const SimResult a = RunCluster(
        EngineClusterOptions(engine, EpsilonLevel::kMedium, 11));
    const SimResult b = RunCluster(
        EngineClusterOptions(engine, EpsilonLevel::kMedium, 11));
    EXPECT_EQ(a.committed, b.committed) << EngineKindToString(engine);
    EXPECT_EQ(a.ops_executed, b.ops_executed) << EngineKindToString(engine);
    EXPECT_EQ(a.aborts, b.aborts) << EngineKindToString(engine);
  }
}

TEST(EngineKindTest, Names) {
  EXPECT_EQ(EngineKindToString(EngineKind::kTimestampOrdering), "TO-ESR");
  EXPECT_EQ(EngineKindToString(EngineKind::kTwoPhaseLocking), "2PL-ESR");
  EXPECT_EQ(EngineKindToString(EngineKind::kMultiversion), "MVTO");
  EXPECT_EQ(EngineKindToString(EngineKind::kSharded), "TO-SHARDED");
}

}  // namespace
}  // namespace esr
