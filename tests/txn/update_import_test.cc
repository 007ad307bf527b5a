// Tests for the Sec. 1 generalization: update ETs that view inconsistent
// data "the same way query ETs do", with a separate import budget —
// excluded from the paper's evaluation but part of the ESR framework —
// and for the Sec. 3.2.1 repeated-read worst-case accounting.

#include <gtest/gtest.h>

#include <memory>

#include "engine/sharded/sharded_engine.h"
#include "testing/test_util.h"
#include "twopl/twopl_manager.h"

namespace esr {
namespace {

using testing::EngineFixture;
using testing::Ts;

TEST(UpdateImportTest, DefaultUpdatesStayConsistent) {
  EngineFixture f;
  f.CommitWrite(50, 0, 2000);
  const TxnId u = f.manager.Begin(TxnType::kUpdate, Ts(20),
                                  BoundSpec::TransactionOnly(kUnbounded));
  // Plain update ET (no import budget): a late read still aborts.
  const OpResult r = f.manager.Read(u, 0);
  EXPECT_EQ(r.kind, OpResult::Kind::kAbort);
  EXPECT_EQ(r.abort_reason, AbortReason::kLateRead);
}

TEST(UpdateImportTest, ImportBudgetAdmitsLateRead) {
  EngineFixture f;
  f.CommitWrite(50, 0, 2000);  // d = 1000 for older readers
  const TxnId u = f.manager.BeginUpdateWithImport(
      Ts(20), BoundSpec::TransactionOnly(kUnbounded),
      BoundSpec::TransactionOnly(1500));
  const OpResult r = f.manager.Read(u, 0);
  ASSERT_EQ(r.kind, OpResult::Kind::kOk);
  EXPECT_EQ(r.value, 2000);
  EXPECT_EQ(r.inconsistency, 1000.0);
  EXPECT_TRUE(r.relaxed);
  const Transaction* state = f.manager.Find(u);
  ASSERT_NE(state, nullptr);
  ASSERT_NE(state->import_accumulator(), nullptr);
  EXPECT_EQ(state->import_accumulator()->total(), 1000.0);
  // The export accumulator is untouched by reads.
  EXPECT_EQ(state->accumulator().total(), 0.0);
  ASSERT_TRUE(f.manager.Commit(u).ok());
}

TEST(UpdateImportTest, ImportBudgetIsEnforced) {
  EngineFixture f;
  f.CommitWrite(50, 0, 2000);
  const TxnId u = f.manager.BeginUpdateWithImport(
      Ts(20), BoundSpec::TransactionOnly(kUnbounded),
      BoundSpec::TransactionOnly(999));
  const OpResult r = f.manager.Read(u, 0);
  EXPECT_EQ(r.kind, OpResult::Kind::kAbort);
  EXPECT_EQ(r.abort_reason, AbortReason::kTransactionBound);
}

TEST(UpdateImportTest, ImportEnabledUpdateReadsUncommitted) {
  EngineFixture f;
  const TxnId writer = f.manager.Begin(TxnType::kUpdate, Ts(10),
                                       BoundSpec());
  ASSERT_EQ(f.manager.Write(writer, 0, 1400).kind, OpResult::Kind::kOk);
  const TxnId u = f.manager.BeginUpdateWithImport(
      Ts(20), BoundSpec::TransactionOnly(kUnbounded),
      BoundSpec::TransactionOnly(500));
  const OpResult r = f.manager.Read(u, 0);  // d = 400 <= 500
  ASSERT_EQ(r.kind, OpResult::Kind::kOk);
  EXPECT_EQ(r.value, 1400);
  EXPECT_EQ(r.inconsistency, 400.0);
  ASSERT_TRUE(f.manager.Commit(u).ok());
  ASSERT_TRUE(f.manager.Commit(writer).ok());
}

TEST(UpdateImportTest, ZeroImportBudgetBehavesLikePlainUpdate) {
  EngineFixture f;
  f.CommitWrite(50, 0, 2000);
  const TxnId u = f.manager.BeginUpdateWithImport(
      Ts(20), BoundSpec::TransactionOnly(kUnbounded),
      BoundSpec::TransactionOnly(0));
  EXPECT_EQ(f.manager.Read(u, 0).kind, OpResult::Kind::kAbort);
}

TEST(UpdateImportTest, ImportAndExportBudgetsAreSeparate) {
  EngineFixture f;
  f.CommitWrite(50, 0, 1600);  // import d = 600 for older readers
  // A query holds a registered read of object 1 so a late write exports.
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(100),
                                  BoundSpec::TransactionOnly(kUnbounded));
  ASSERT_EQ(f.manager.Read(q, 1).kind, OpResult::Kind::kOk);  // proper 2000

  const TxnId u = f.manager.BeginUpdateWithImport(
      Ts(20), BoundSpec::TransactionOnly(700),
      BoundSpec::TransactionOnly(700));
  ASSERT_EQ(f.manager.Read(u, 0).kind, OpResult::Kind::kOk);  // import 600
  // Late write to object 1 exports |2500 - 2000| = 500 <= TEL 700; the
  // 600 already imported does NOT count against the export budget.
  const OpResult w = f.manager.Write(u, 1, 2500);
  ASSERT_EQ(w.kind, OpResult::Kind::kOk);
  EXPECT_EQ(w.inconsistency, 500.0);
  const Transaction* state = f.manager.Find(u);
  EXPECT_EQ(state->import_accumulator()->total(), 600.0);
  EXPECT_EQ(state->accumulator().total(), 500.0);
  ASSERT_TRUE(f.manager.Commit(u).ok());
  ASSERT_TRUE(f.manager.Commit(q).ok());
}

// ------------------------------------------- repeated reads (Sec. 3.2.1) --

/// Every engine that admits lock-free ESR query reads runs the same
/// min/max accounting, so the repeated-read cases run against each: TO,
/// the sharded engine (4 shards), and 2PL's divergence-controlled reads.
/// TO is the production engine with one shard.
/// Object i starts at 1000 * (i + 1), as in EngineFixture.
class RepeatedReadTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  RepeatedReadTest() {
    const ObjectStoreOptions options = EngineFixture::StoreOptions(10, 20);
    // The production TO engine is the sharded engine with one shard.
    ShardedEngineOptions sharded = testing::OneShard();
    switch (GetParam()) {
      case EngineKind::kTwoPhaseLocking:
        engine_ = std::make_unique<TwoPLManager>(&store_, &schema_, &metrics_);
        break;
      case EngineKind::kSharded:
        sharded.num_shards = 4;
        [[fallthrough]];
      case EngineKind::kTimestampOrdering: {
        auto engine = std::make_unique<ShardedEngine>(sharded, options,
                                                      &schema_, &metrics_);
        sharded_ = engine.get();
        engine_ = std::move(engine);
        break;
      }
      case EngineKind::kMultiversion:
        ADD_FAILURE() << "MVTO never views inconsistency";
        return;
    }
    for (ObjectId id = 0; id < 10; ++id) {
      ObjectRecord& rec =
          sharded_ != nullptr ? sharded_->ObjectAt(id) : store_.Get(id);
      rec.ApplyWrite(UINT64_MAX, Timestamp::Min(),
                     static_cast<Value>(1000 * (id + 1)));
      rec.CommitWrite(UINT64_MAX);
    }
  }

  TransactionEngine& engine() { return *engine_; }

  /// Runs a complete single-object update ET: begin(ts), write, commit.
  void CommitWrite(int64_t ts, ObjectId object, Value v) {
    const TxnId txn = engine_->Begin(TxnType::kUpdate, Ts(ts),
                                     BoundSpec::TransactionOnly(kUnbounded));
    ASSERT_EQ(engine_->Write(txn, object, v).kind, OpResult::Kind::kOk)
        << "seed write failed";
    ASSERT_TRUE(engine_->Commit(txn).ok());
  }

  ObjectStore store_{EngineFixture::StoreOptions(10, 20)};
  GroupSchema schema_;
  MetricRegistry metrics_;
  std::unique_ptr<TransactionEngine> engine_;
  ShardedEngine* sharded_ = nullptr;
};

TEST_P(RepeatedReadTest, SecondReadOfSameObjectChargesOnlyExcess) {
  CommitWrite(50, 0, 1600);  // d = 600 for a query at ts 20
  const TxnId q = engine().Begin(TxnType::kQuery, Ts(20),
                                 BoundSpec::TransactionOnly(1000));
  ASSERT_EQ(engine().Read(q, 0).kind, OpResult::Kind::kOk);
  const Transaction* state = engine().Find(q);
  EXPECT_EQ(state->accumulator().total(), 600.0);
  // Re-reading the unchanged object charges nothing (naive accounting
  // would charge another 600 and blow the TIL).
  ASSERT_EQ(engine().Read(q, 0).kind, OpResult::Kind::kOk);
  EXPECT_EQ(state->accumulator().total(), 600.0);
  ASSERT_TRUE(engine().Commit(q).ok());
}

TEST_P(RepeatedReadTest, GrowingInconsistencyChargesTheIncrease) {
  CommitWrite(50, 0, 1600);  // d = 600
  const TxnId q = engine().Begin(TxnType::kQuery, Ts(20),
                                 BoundSpec::TransactionOnly(1000));
  ASSERT_EQ(engine().Read(q, 0).kind, OpResult::Kind::kOk);  // charge 600
  CommitWrite(60, 0, 1900);  // d grows to 900
  ASSERT_EQ(engine().Read(q, 0).kind, OpResult::Kind::kOk);  // +300
  const Transaction* state = engine().Find(q);
  EXPECT_EQ(state->accumulator().total(), 900.0);
  // The observed range is tracked for aggregate queries.
  const Transaction::ValueRange* range = state->RangeFor(0);
  ASSERT_NE(range, nullptr);
  EXPECT_EQ(range->min, 1600);
  EXPECT_EQ(range->max, 1900);
  EXPECT_EQ(range->reads, 2);
  ASSERT_TRUE(engine().Commit(q).ok());
}

TEST_P(RepeatedReadTest, ShrinkingInconsistencyChargesNothing) {
  CommitWrite(50, 0, 1600);  // d = 600
  const TxnId q = engine().Begin(TxnType::kQuery, Ts(20),
                                 BoundSpec::TransactionOnly(700));
  ASSERT_EQ(engine().Read(q, 0).kind, OpResult::Kind::kOk);
  CommitWrite(60, 0, 1200);  // present moves BACK toward proper: d = 200
  const OpResult r = engine().Read(q, 0);
  ASSERT_EQ(r.kind, OpResult::Kind::kOk);
  EXPECT_EQ(r.inconsistency, 200.0);  // measured d
  const Transaction* state = engine().Find(q);
  EXPECT_EQ(state->accumulator().total(), 600.0);  // worst case retained
  ASSERT_TRUE(engine().Commit(q).ok());
}

TEST_P(RepeatedReadTest, TilStillBindsOnTheWorstCase) {
  CommitWrite(50, 0, 1600);  // d = 600
  const TxnId q = engine().Begin(TxnType::kQuery, Ts(20),
                                 BoundSpec::TransactionOnly(800));
  ASSERT_EQ(engine().Read(q, 0).kind, OpResult::Kind::kOk);
  CommitWrite(60, 0, 2500);  // d grows to 1500; increment 900 > 200 left
  const OpResult r = engine().Read(q, 0);
  EXPECT_EQ(r.kind, OpResult::Kind::kAbort);
  EXPECT_EQ(r.abort_reason, AbortReason::kTransactionBound);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, RepeatedReadTest,
    ::testing::Values(EngineKind::kTimestampOrdering, EngineKind::kSharded,
                      EngineKind::kTwoPhaseLocking),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      switch (info.param) {
        case EngineKind::kTimestampOrdering:
          return "TO";
        case EngineKind::kSharded:
          return "Sharded4";
        default:
          return "TwoPL";
      }
    });

}  // namespace
}  // namespace esr
