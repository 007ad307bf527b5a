#include <gtest/gtest.h>

#include "testing/test_util.h"
#include "txn/data_manager.h"

namespace esr {
namespace {

using testing::EngineFixture;
using testing::Ts;

// ------------------------------------------------ export control (5.2) --

TEST(ExportControlTest, LateWriteExportsMaxOverReaders) {
  EngineFixture f;
  // Two ESR queries read object 0 (value 1000) and register proper values.
  const TxnId q1 = f.manager.Begin(TxnType::kQuery, Ts(100),
                                   BoundSpec::TransactionOnly(kUnbounded));
  const TxnId q2 = f.manager.Begin(TxnType::kQuery, Ts(110),
                                   BoundSpec::TransactionOnly(kUnbounded));
  ASSERT_EQ(f.manager.Read(q1, 0).kind, OpResult::Kind::kOk);
  ASSERT_EQ(f.manager.Read(q2, 0).kind, OpResult::Kind::kOk);

  // An update with an OLDER timestamp writes object 0: Fig. 3 case 3.
  const TxnId u = f.manager.Begin(TxnType::kUpdate, Ts(50),
                                  BoundSpec::TransactionOnly(700));
  const OpResult w = f.manager.Write(u, 0, 1600);
  ASSERT_EQ(w.kind, OpResult::Kind::kOk);
  EXPECT_TRUE(w.relaxed);
  // d = max(|1600 - 1000|, |1600 - 1000|) = 600 <= TEL 700.
  EXPECT_EQ(w.inconsistency, 600.0);
  ASSERT_TRUE(f.manager.Commit(u).ok());
}

TEST(ExportControlTest, TelViolationAbortsLateWrite) {
  EngineFixture f;
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(100),
                                  BoundSpec::TransactionOnly(kUnbounded));
  ASSERT_EQ(f.manager.Read(q, 0).kind, OpResult::Kind::kOk);
  const TxnId u = f.manager.Begin(TxnType::kUpdate, Ts(50),
                                  BoundSpec::TransactionOnly(500));
  const OpResult w = f.manager.Write(u, 0, 1600);  // d = 600 > TEL 500
  EXPECT_EQ(w.kind, OpResult::Kind::kAbort);
  EXPECT_EQ(w.abort_reason, AbortReason::kTransactionBound);
  EXPECT_FALSE(f.manager.IsActive(u));
  // Value untouched by the rejected write.
  EXPECT_EQ(f.store.Get(0).value(), 1000);
}

TEST(ExportControlTest, TelAccumulatesAcrossWrites) {
  EngineFixture f;
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(100),
                                  BoundSpec::TransactionOnly(kUnbounded));
  ASSERT_EQ(f.manager.Read(q, 0).kind, OpResult::Kind::kOk);  // proper 1000
  ASSERT_EQ(f.manager.Read(q, 1).kind, OpResult::Kind::kOk);  // proper 2000
  const TxnId u = f.manager.Begin(TxnType::kUpdate, Ts(50),
                                  BoundSpec::TransactionOnly(1000));
  ASSERT_EQ(f.manager.Write(u, 0, 1600).kind, OpResult::Kind::kOk);  // 600
  // Second late write would export 600 more: 1200 > TEL 1000.
  const OpResult w2 = f.manager.Write(u, 1, 2600);
  EXPECT_EQ(w2.kind, OpResult::Kind::kAbort);
  // The first (admitted) write was rolled back by the abort.
  EXPECT_EQ(f.store.Get(0).value(), 1000);
}

TEST(ExportControlTest, WriteWithNoReadersExportsNothing) {
  EngineFixture f;
  // A query read makes the object's query_read_ts newer, then COMMITS —
  // its registration disappears, but query_read_ts remains.
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(100),
                                  BoundSpec::TransactionOnly(kUnbounded));
  ASSERT_EQ(f.manager.Read(q, 0).kind, OpResult::Kind::kOk);
  ASSERT_TRUE(f.manager.Commit(q).ok());
  const TxnId u = f.manager.Begin(TxnType::kUpdate, Ts(50),
                                  BoundSpec::TransactionOnly(1));
  const OpResult w = f.manager.Write(u, 0, 1600);
  ASSERT_EQ(w.kind, OpResult::Kind::kOk);
  EXPECT_EQ(w.inconsistency, 0.0);  // nobody left to export to
  EXPECT_TRUE(w.relaxed);           // still a case-3 write
}

TEST(ExportControlTest, SumRuleChargesAllReaders) {
  DivergenceOptions div;
  div.export_combine = ExportCombine::kSum;
  EngineFixture f(10, 20, div);
  const TxnId q1 = f.manager.Begin(TxnType::kQuery, Ts(100),
                                   BoundSpec::TransactionOnly(kUnbounded));
  const TxnId q2 = f.manager.Begin(TxnType::kQuery, Ts(110),
                                   BoundSpec::TransactionOnly(kUnbounded));
  ASSERT_EQ(f.manager.Read(q1, 0).kind, OpResult::Kind::kOk);
  ASSERT_EQ(f.manager.Read(q2, 0).kind, OpResult::Kind::kOk);
  const TxnId u = f.manager.Begin(TxnType::kUpdate, Ts(50),
                                  BoundSpec::TransactionOnly(kUnbounded));
  const OpResult w = f.manager.Write(u, 0, 1600);
  ASSERT_EQ(w.kind, OpResult::Kind::kOk);
  // Wu et al. [21]: d = 600 + 600 — the overestimate the paper avoids.
  EXPECT_EQ(w.inconsistency, 1200.0);
}

TEST(ExportControlTest, NewerReaderScopeIgnoresOlderReaders) {
  DivergenceOptions div;
  div.export_scope = ExportScope::kNewerReaders;
  EngineFixture f(10, 20, div);
  // Reader OLDER than the writer: serially it precedes the write and read
  // the old value, so under the narrowed scope nothing is exported.
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(30),
                                  BoundSpec::TransactionOnly(kUnbounded));
  ASSERT_EQ(f.manager.Read(q, 0).kind, OpResult::Kind::kOk);
  const TxnId u = f.manager.Begin(TxnType::kUpdate, Ts(50),
                                  BoundSpec::TransactionOnly(kUnbounded));
  // ts 50 > query_read_ts 30: consistent write, no export either way.
  const OpResult w = f.manager.Write(u, 0, 1600);
  ASSERT_EQ(w.kind, OpResult::Kind::kOk);
  EXPECT_EQ(w.inconsistency, 0.0);
  EXPECT_FALSE(w.relaxed);
}

// --------------------------------------------- object-level limits (3.2.2)

TEST(ObjectLimitTest, OilRejectsTooInconsistentRead) {
  EngineFixture f;
  f.CommitWrite(50, 0, 2000);  // d = 1000 for older queries
  f.store.Get(0).set_oil(999.0);
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(20),
                                  BoundSpec::TransactionOnly(kUnbounded));
  const OpResult r = f.manager.Read(q, 0);
  EXPECT_EQ(r.kind, OpResult::Kind::kAbort);
  EXPECT_EQ(r.abort_reason, AbortReason::kObjectBound);
  EXPECT_EQ(f.metrics.CounterValue("abort.object_bound"), 1);
}

TEST(ObjectLimitTest, OilAdmitsAtExactLimit) {
  EngineFixture f;
  f.CommitWrite(50, 0, 2000);
  f.store.Get(0).set_oil(1000.0);
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(20),
                                  BoundSpec::TransactionOnly(kUnbounded));
  EXPECT_EQ(f.manager.Read(q, 0).kind, OpResult::Kind::kOk);
}

TEST(ObjectLimitTest, OelRejectsTooInconsistentWrite) {
  EngineFixture f;
  f.store.Get(0).set_oel(500.0);
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(100),
                                  BoundSpec::TransactionOnly(kUnbounded));
  ASSERT_EQ(f.manager.Read(q, 0).kind, OpResult::Kind::kOk);
  const TxnId u = f.manager.Begin(TxnType::kUpdate, Ts(50),
                                  BoundSpec::TransactionOnly(kUnbounded));
  const OpResult w = f.manager.Write(u, 0, 1600);  // d = 600 > OEL 500
  EXPECT_EQ(w.kind, OpResult::Kind::kAbort);
  EXPECT_EQ(w.abort_reason, AbortReason::kObjectBound);
}

TEST(ObjectLimitTest, ObjectCheckFiresBeforeTransactionCheck) {
  // Bottom-up control: the object level is checked first, so the abort
  // reason names the object bound even when both would reject.
  EngineFixture f;
  f.CommitWrite(50, 0, 2000);
  f.store.Get(0).set_oil(10.0);
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(20),
                                  BoundSpec::TransactionOnly(10.0));
  const OpResult r = f.manager.Read(q, 0);
  EXPECT_EQ(r.kind, OpResult::Kind::kAbort);
  EXPECT_EQ(r.abort_reason, AbortReason::kObjectBound);
}

// ------------------------------------------------ group-level bounds (5.3.1)

TEST(GroupBoundTest, GroupLimitRejectsBetweenObjectAndTransaction) {
  EngineFixture f;
  const GroupId company = *f.schema.AddGroup("company", kRootGroup);
  ASSERT_TRUE(f.schema.AssignObject(0, company).ok());
  ASSERT_TRUE(f.schema.AssignObject(1, company).ok());
  f.CommitWrite(50, 0, 1400);  // d = 400
  f.CommitWrite(51, 1, 2400);  // d = 400

  BoundSpec bounds;
  bounds.SetTransactionLimit(kUnbounded);
  bounds.SetLimit(company, 700.0);
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(20), bounds);
  ASSERT_EQ(f.manager.Read(q, 0).kind, OpResult::Kind::kOk);
  const OpResult r = f.manager.Read(q, 1);  // 400 + 400 > 700 at company
  EXPECT_EQ(r.kind, OpResult::Kind::kAbort);
  EXPECT_EQ(r.abort_reason, AbortReason::kGroupBound);
  EXPECT_EQ(f.metrics.CounterValue("abort.group_bound"), 1);
}

TEST(GroupBoundTest, IndependentGroupsDoNotInterfere) {
  EngineFixture f;
  const GroupId a = *f.schema.AddGroup("a", kRootGroup);
  const GroupId b = *f.schema.AddGroup("b", kRootGroup);
  ASSERT_TRUE(f.schema.AssignObject(0, a).ok());
  ASSERT_TRUE(f.schema.AssignObject(1, b).ok());
  f.CommitWrite(50, 0, 1400);
  f.CommitWrite(51, 1, 2400);

  BoundSpec bounds;
  bounds.SetTransactionLimit(kUnbounded);
  bounds.SetLimit(a, 500.0);
  bounds.SetLimit(b, 500.0);
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(20), bounds);
  EXPECT_EQ(f.manager.Read(q, 0).kind, OpResult::Kind::kOk);
  EXPECT_EQ(f.manager.Read(q, 1).kind, OpResult::Kind::kOk);
  const Transaction* txn = f.manager.Find(q);
  ASSERT_NE(txn, nullptr);
  EXPECT_EQ(txn->accumulator().accumulated(a), 400.0);
  EXPECT_EQ(txn->accumulator().accumulated(b), 400.0);
  EXPECT_EQ(txn->accumulator().total(), 800.0);
}

TEST(GroupBoundTest, DeepHierarchyChecksEveryLevel) {
  // Four-level banking hierarchy from Fig. 1, checked bottom-up.
  EngineFixture f;
  const GroupId company = *f.schema.AddGroup("company", kRootGroup);
  const GroupId com1 = *f.schema.AddGroup("com1", company);
  const GroupId div1 = *f.schema.AddGroup("div1", com1);
  ASSERT_TRUE(f.schema.AssignObject(0, div1).ok());
  f.CommitWrite(50, 0, 1300);  // d = 300

  // The tightest violated level should be reported (div1 passes, com1
  // fails).
  BoundSpec bounds;
  bounds.SetTransactionLimit(kUnbounded);
  bounds.SetLimit(div1, 350.0);
  bounds.SetLimit(com1, 250.0);
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(20), bounds);
  const OpResult r = f.manager.Read(q, 0);
  EXPECT_EQ(r.kind, OpResult::Kind::kAbort);
  EXPECT_EQ(r.abort_reason, AbortReason::kGroupBound);
}

// ------------------------------------------ import measurement details --

TEST(ImportMeasureTest, ProperValueTracksQueryTimestamp) {
  EngineFixture f;
  f.CommitWrite(10, 0, 1100);
  f.CommitWrite(20, 0, 1200);
  f.CommitWrite(30, 0, 1300);
  DataManager& dm = f.data_manager();
  const ObjectRecord& obj = f.store.Get(0);
  // Query between writes: proper is the newest write older than it.
  EXPECT_EQ(dm.ImportInconsistency(obj, Ts(25))->proper, 1200);
  EXPECT_EQ(dm.ImportInconsistency(obj, Ts(25))->d, 100.0);
  EXPECT_EQ(dm.ImportInconsistency(obj, Ts(15))->proper, 1100);
  EXPECT_EQ(dm.ImportInconsistency(obj, Ts(15))->d, 200.0);
  EXPECT_EQ(dm.ImportInconsistency(obj, Ts(35))->d, 0.0);
}

TEST(ImportMeasureTest, DistanceIsAbsoluteValue) {
  EngineFixture f;
  f.CommitWrite(50, 0, 400);  // value decreased: 1000 -> 400
  DataManager& dm = f.data_manager();
  EXPECT_EQ(dm.ImportInconsistency(f.store.Get(0), Ts(20))->d, 600.0);
}

TEST(ImportMeasureTest, RegisteredProperValueUsedForLaterExport) {
  EngineFixture f;
  f.CommitWrite(10, 0, 1100);
  // ESR query with ts 5 reads late: proper is the seed 1000, present 1100.
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(5),
                                  BoundSpec::TransactionOnly(kUnbounded));
  const OpResult r = f.manager.Read(q, 0);
  ASSERT_EQ(r.kind, OpResult::Kind::kOk);
  EXPECT_EQ(r.value, 1100);
  EXPECT_EQ(r.inconsistency, 100.0);
  ASSERT_EQ(f.store.Get(0).query_readers().size(), 1u);
  // The registration carries the PROPER value (1000), not the present.
  EXPECT_EQ(f.store.Get(0).query_readers()[0].proper_value, 1000);
}

}  // namespace
}  // namespace esr
