// The public Database/Session API over every engine: the convenience
// layer must behave identically (modulo each protocol's semantics) no
// matter which concurrency-control engine the server runs.

#include <gtest/gtest.h>

#include "api/database.h"
#include "mvto/mvto_manager.h"
#include "twopl/twopl_manager.h"

namespace esr {
namespace {

ServerOptions OptionsFor(EngineKind engine) {
  ServerOptions opt;
  opt.store.num_objects = 16;
  opt.store.seed = 3;
  opt.engine = engine;
  return opt;
}

class EngineApiTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineApiTest, LoadPeekRoundTrip) {
  Database db(OptionsFor(GetParam()));
  ASSERT_TRUE(db.LoadValue(0, 1111).ok());
  ASSERT_TRUE(db.LoadValue(1, 2222).ok());
  EXPECT_EQ(*db.PeekValue(0), 1111);
  EXPECT_EQ(*db.PeekValue(1), 2222);
  EXPECT_EQ(db.LoadValue(99, 1).code(), StatusCode::kNotFound);
}

TEST_P(EngineApiTest, UpdateThenQuery) {
  Database db(OptionsFor(GetParam()));
  ASSERT_TRUE(db.LoadValue(0, 100).ok());
  ASSERT_TRUE(db.LoadValue(1, 200).ok());
  Session session = db.CreateSession(1);

  const Status update = session.RunUpdate(
      [](TxnHandle& txn) -> Status {
        const OpResult r = txn.Read(0);
        if (!r.ok()) return Status::Aborted("read");
        if (!txn.Write(0, r.value + 50).ok()) {
          return Status::Aborted("write");
        }
        return Status::OK();
      },
      BoundSpec::TransactionOnly(1000));
  ASSERT_TRUE(update.ok()) << EngineKindToString(GetParam());
  EXPECT_EQ(*db.PeekValue(0), 150);

  const auto query = session.AggregateQuery(
      {0, 1}, AggregateKind::kSum, BoundSpec::TransactionOnly(1000));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->outcome.result, 350.0);
  // Quiescent data: no inconsistency under any engine.
  EXPECT_EQ(query->imported, 0.0);
}

TEST_P(EngineApiTest, AbortRollsBack) {
  Database db(OptionsFor(GetParam()));
  ASSERT_TRUE(db.LoadValue(0, 100).ok());
  Session session = db.CreateSession(1);
  TxnHandle txn = session.Begin(TxnType::kUpdate, BoundSpec());
  ASSERT_EQ(txn.Write(0, 999).kind, OpResult::Kind::kOk);
  ASSERT_TRUE(txn.Abort().ok());
  EXPECT_EQ(*db.PeekValue(0), 100);
}

TEST_P(EngineApiTest, AvgAggregateWorksEverywhere) {
  Database db(OptionsFor(GetParam()));
  for (ObjectId id = 0; id < 4; ++id) {
    ASSERT_TRUE(db.LoadValue(id, 100 * (id + 1)).ok());
  }
  Session session = db.CreateSession(1);
  const auto avg = session.AggregateQuery(
      {0, 1, 2, 3}, AggregateKind::kAvg, BoundSpec::TransactionOnly(1000));
  ASSERT_TRUE(avg.ok());
  EXPECT_EQ(avg->outcome.result, 250.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineApiTest,
    ::testing::Values(EngineKind::kTimestampOrdering,
                      EngineKind::kTwoPhaseLocking,
                      EngineKind::kMultiversion, EngineKind::kSharded),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      switch (info.param) {
        case EngineKind::kTimestampOrdering:
          return std::string("ToEsr");
        case EngineKind::kTwoPhaseLocking:
          return std::string("TwoPl");
        case EngineKind::kMultiversion:
          return std::string("Mvto");
        case EngineKind::kSharded:
          return std::string("Sharded");
      }
      return std::string("Unknown");
    });

TEST(EngineSelectionTest, ServerReportsConfiguredEngine) {
  for (EngineKind kind :
       {EngineKind::kTimestampOrdering, EngineKind::kTwoPhaseLocking,
        EngineKind::kMultiversion, EngineKind::kSharded}) {
    Server server(OptionsFor(kind));
    EXPECT_EQ(server.sharded_engine() != nullptr,
              kind == EngineKind::kTimestampOrdering ||
                  kind == EngineKind::kSharded);
    EXPECT_EQ(dynamic_cast<TwoPLManager*>(&server.engine()) != nullptr,
              kind == EngineKind::kTwoPhaseLocking);
    EXPECT_EQ(dynamic_cast<MvtoManager*>(&server.engine()) != nullptr,
              kind == EngineKind::kMultiversion);
  }
}

TEST(EngineSelectionTest, ShardedEngineAccessor) {
  // The TO engine is the sharded engine pinned to one shard, whatever
  // ServerOptions::sharded says.
  ServerOptions to_opt = OptionsFor(EngineKind::kTimestampOrdering);
  to_opt.sharded.num_shards = 4;
  Server to_server(to_opt);
  ASSERT_NE(to_server.sharded_engine(), nullptr);
  EXPECT_EQ(to_server.sharded_engine()->num_shards(), 1u);
  ServerOptions opt = OptionsFor(EngineKind::kSharded);
  opt.sharded.num_shards = 4;
  Server server(opt);
  ASSERT_NE(server.sharded_engine(), nullptr);
  EXPECT_EQ(server.sharded_engine()->num_shards(), 4u);
  Server twopl_server(OptionsFor(EngineKind::kTwoPhaseLocking));
  EXPECT_EQ(twopl_server.sharded_engine(), nullptr);
}

TEST(EngineSelectionDeathTest, ObjectAccessorGuardsEngineKind) {
  Server server(OptionsFor(EngineKind::kMultiversion));
  EXPECT_DEATH(server.object(0), "no single-version store");
}

}  // namespace
}  // namespace esr
