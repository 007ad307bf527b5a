#include "engine/sharded/sharded_engine.h"

#include <gtest/gtest.h>

#include "testing/test_util.h"

namespace esr {
namespace {

using testing::EngineFixture;
using testing::Ts;

TEST(TransactionManagerTest, BeginAssignsFreshIds) {
  EngineFixture f;
  const TxnId a = f.manager.Begin(TxnType::kQuery, Ts(1), BoundSpec());
  const TxnId b = f.manager.Begin(TxnType::kUpdate, Ts(2), BoundSpec());
  EXPECT_NE(a, b);
  EXPECT_TRUE(f.manager.IsActive(a));
  EXPECT_TRUE(f.manager.IsActive(b));
  EXPECT_EQ(f.manager.num_active(), 2u);
}

TEST(TransactionManagerTest, SimpleReadReturnsValue) {
  EngineFixture f;
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(10), BoundSpec());
  const OpResult r = f.manager.Read(q, 2);
  ASSERT_EQ(r.kind, OpResult::Kind::kOk);
  EXPECT_EQ(r.value, 3000);
  EXPECT_EQ(r.inconsistency, 0.0);
  EXPECT_FALSE(r.relaxed);
  EXPECT_TRUE(f.manager.Commit(q).ok());
  EXPECT_FALSE(f.manager.IsActive(q));
}

TEST(TransactionManagerTest, WriteCommitPersists) {
  EngineFixture f;
  const TxnId u = f.manager.Begin(TxnType::kUpdate, Ts(10), BoundSpec());
  ASSERT_EQ(f.manager.Write(u, 0, 1234).kind, OpResult::Kind::kOk);
  ASSERT_TRUE(f.manager.Commit(u).ok());
  EXPECT_EQ(f.store.Get(0).value(), 1234);
  EXPECT_FALSE(f.store.Get(0).has_uncommitted_write());
}

TEST(TransactionManagerTest, ExplicitAbortRestoresValues) {
  EngineFixture f;
  const TxnId u = f.manager.Begin(TxnType::kUpdate, Ts(10), BoundSpec());
  ASSERT_EQ(f.manager.Write(u, 0, 1234).kind, OpResult::Kind::kOk);
  EXPECT_EQ(f.store.Get(0).value(), 1234);  // in-place with shadow
  ASSERT_TRUE(f.manager.Abort(u).ok());
  EXPECT_EQ(f.store.Get(0).value(), 1000);
  EXPECT_FALSE(f.manager.IsActive(u));
  EXPECT_EQ(f.metrics.CounterValue("txn.abort"), 1);
}

TEST(TransactionManagerTest, CommitUnknownTxnFails) {
  EngineFixture f;
  EXPECT_EQ(f.manager.Commit(999).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(f.manager.Abort(999).code(), StatusCode::kFailedPrecondition);
}

TEST(TransactionManagerTest, UpdateReadsOwnWrite) {
  EngineFixture f;
  const TxnId u = f.manager.Begin(TxnType::kUpdate, Ts(10), BoundSpec());
  ASSERT_EQ(f.manager.Write(u, 0, 1500).kind, OpResult::Kind::kOk);
  const OpResult r = f.manager.Read(u, 0);
  ASSERT_EQ(r.kind, OpResult::Kind::kOk);
  EXPECT_EQ(r.value, 1500);
  ASSERT_TRUE(f.manager.Commit(u).ok());
}

TEST(TransactionManagerTest, SrLateReadAbortsAndTearsDown) {
  EngineFixture f;
  f.CommitWrite(/*ts=*/50, /*object=*/0, /*v=*/2000);
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(20),
                                  BoundSpec::TransactionOnly(0));
  const OpResult r = f.manager.Read(q, 0);
  EXPECT_EQ(r.kind, OpResult::Kind::kAbort);
  EXPECT_EQ(r.abort_reason, AbortReason::kLateRead);
  EXPECT_FALSE(f.manager.IsActive(q));  // server-side teardown happened
  EXPECT_EQ(f.metrics.CounterValue("abort.late_read"), 1);
}

TEST(TransactionManagerTest, EsrLateReadSucceedsWithinBounds) {
  EngineFixture f;
  f.CommitWrite(50, 0, 2000);  // proper for ts<50 is 1000, present 2000
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(20),
                                  BoundSpec::TransactionOnly(1500));
  const OpResult r = f.manager.Read(q, 0);
  ASSERT_EQ(r.kind, OpResult::Kind::kOk);
  EXPECT_EQ(r.value, 2000);  // the present value, not the proper one
  EXPECT_EQ(r.inconsistency, 1000.0);
  EXPECT_TRUE(r.relaxed);
  EXPECT_EQ(f.metrics.CounterValue("op.inconsistent_ok"), 1);
  ASSERT_TRUE(f.manager.Commit(q).ok());
}

TEST(TransactionManagerTest, EsrLateReadAbortsBeyondTil) {
  EngineFixture f;
  f.CommitWrite(50, 0, 2000);
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(20),
                                  BoundSpec::TransactionOnly(999));
  const OpResult r = f.manager.Read(q, 0);
  EXPECT_EQ(r.kind, OpResult::Kind::kAbort);
  EXPECT_EQ(r.abort_reason, AbortReason::kTransactionBound);
  EXPECT_EQ(f.metrics.CounterValue("abort.transaction_bound"), 1);
}

TEST(TransactionManagerTest, TilAccumulatesAcrossReads) {
  EngineFixture f;
  f.CommitWrite(50, 0, 1600);  // d = 600 for queries older than 50
  f.CommitWrite(51, 1, 2600);  // d = 600
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(20),
                                  BoundSpec::TransactionOnly(1000));
  ASSERT_EQ(f.manager.Read(q, 0).kind, OpResult::Kind::kOk);
  // Second read would push the total to 1200 > 1000.
  const OpResult r = f.manager.Read(q, 1);
  EXPECT_EQ(r.kind, OpResult::Kind::kAbort);
  EXPECT_EQ(r.abort_reason, AbortReason::kTransactionBound);
}

TEST(TransactionManagerTest, QueryReadsUncommittedUnderEsr) {
  EngineFixture f;
  const TxnId u = f.manager.Begin(TxnType::kUpdate, Ts(10), BoundSpec());
  ASSERT_EQ(f.manager.Write(u, 0, 1800).kind, OpResult::Kind::kOk);
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(20),
                                  BoundSpec::TransactionOnly(5000));
  const OpResult r = f.manager.Read(q, 0);
  ASSERT_EQ(r.kind, OpResult::Kind::kOk);
  EXPECT_EQ(r.value, 1800);  // uncommitted (present) value
  EXPECT_EQ(r.inconsistency, 800.0);
  EXPECT_TRUE(r.relaxed);
  ASSERT_TRUE(f.manager.Commit(q).ok());
  ASSERT_TRUE(f.manager.Commit(u).ok());
}

TEST(TransactionManagerTest, SrQueryWaitsForUncommitted) {
  EngineFixture f;
  const TxnId u = f.manager.Begin(TxnType::kUpdate, Ts(10), BoundSpec());
  ASSERT_EQ(f.manager.Write(u, 0, 1800).kind, OpResult::Kind::kOk);
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(20),
                                  BoundSpec::TransactionOnly(0));
  const OpResult r = f.manager.Read(q, 0);
  EXPECT_EQ(r.kind, OpResult::Kind::kWait);
  EXPECT_EQ(r.blocker, u);
  EXPECT_EQ(f.metrics.CounterValue("op.wait"), 1);
  // After the writer (older ts) commits, the retried SR read is on time
  // and sees the committed value — the wait preserved serializability.
  ASSERT_TRUE(f.manager.Commit(u).ok());
  const OpResult retry = f.manager.Read(q, 0);
  ASSERT_EQ(retry.kind, OpResult::Kind::kOk);
  EXPECT_EQ(retry.value, 1800);
  EXPECT_EQ(retry.inconsistency, 0.0);
}

TEST(TransactionManagerTest, UpdateWaitsThenReadsCommittedValue) {
  EngineFixture f;
  const TxnId u1 = f.manager.Begin(TxnType::kUpdate, Ts(10), BoundSpec());
  ASSERT_EQ(f.manager.Write(u1, 0, 1800).kind, OpResult::Kind::kOk);
  const TxnId u2 = f.manager.Begin(TxnType::kUpdate, Ts(20), BoundSpec());
  EXPECT_EQ(f.manager.Read(u2, 0).kind, OpResult::Kind::kWait);
  ASSERT_TRUE(f.manager.Commit(u1).ok());
  const OpResult r = f.manager.Read(u2, 0);
  ASSERT_EQ(r.kind, OpResult::Kind::kOk);
  EXPECT_EQ(r.value, 1800);
  ASSERT_TRUE(f.manager.Commit(u2).ok());
}

TEST(TransactionManagerTest, LateUpdateWriteVsUpdateReadAborts) {
  EngineFixture f;
  const TxnId u1 = f.manager.Begin(TxnType::kUpdate, Ts(50), BoundSpec());
  ASSERT_EQ(f.manager.Read(u1, 0).kind, OpResult::Kind::kOk);
  ASSERT_TRUE(f.manager.Commit(u1).ok());
  const TxnId u2 = f.manager.Begin(TxnType::kUpdate, Ts(20), BoundSpec());
  const OpResult r = f.manager.Write(u2, 0, 1);
  EXPECT_EQ(r.kind, OpResult::Kind::kAbort);
  EXPECT_EQ(r.abort_reason, AbortReason::kLateWrite);
}

TEST(TransactionManagerTest, HistoryExhaustionAbortsQuery) {
  EngineFixture f(/*num_objects=*/10, /*history_depth=*/2);
  // Three committed writes evict the seed value (and the first write)
  // from a depth-2 history.
  f.CommitWrite(30, 0, 1100);
  f.CommitWrite(40, 0, 1200);
  f.CommitWrite(50, 0, 1300);
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(20),
                                  BoundSpec::TransactionOnly(kUnbounded));
  const OpResult r = f.manager.Read(q, 0);
  EXPECT_EQ(r.kind, OpResult::Kind::kAbort);
  EXPECT_EQ(r.abort_reason, AbortReason::kHistoryExhausted);
  EXPECT_EQ(f.metrics.CounterValue("abort.history_exhausted"), 1);
}

TEST(TransactionManagerTest, AbortedUpdateLeavesNoTraceInHistory) {
  EngineFixture f;
  const TxnId u = f.manager.Begin(TxnType::kUpdate, Ts(30), BoundSpec());
  ASSERT_EQ(f.manager.Write(u, 0, 1700).kind, OpResult::Kind::kOk);
  ASSERT_TRUE(f.manager.Abort(u).ok());
  // A later ESR query sees no inconsistency from the aborted write.
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(40),
                                  BoundSpec::TransactionOnly(kUnbounded));
  const OpResult r = f.manager.Read(q, 0);
  ASSERT_EQ(r.kind, OpResult::Kind::kOk);
  EXPECT_EQ(r.value, 1000);
  EXPECT_EQ(r.inconsistency, 0.0);
}

TEST(TransactionManagerTest, CommitCleansReaderRegistrations) {
  EngineFixture f;
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(10), BoundSpec());
  ASSERT_EQ(f.manager.Read(q, 0).kind, OpResult::Kind::kOk);
  EXPECT_EQ(f.store.Get(0).query_readers().size(), 1u);
  ASSERT_TRUE(f.manager.Commit(q).ok());
  EXPECT_EQ(f.store.Get(0).query_readers().size(), 0u);
}

TEST(TransactionManagerTest, MetricsCountCommitsByType) {
  EngineFixture f;
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(1), BoundSpec());
  ASSERT_TRUE(f.manager.Commit(q).ok());
  const TxnId u = f.manager.Begin(TxnType::kUpdate, Ts(2), BoundSpec());
  ASSERT_TRUE(f.manager.Commit(u).ok());
  EXPECT_EQ(f.metrics.CounterValue("txn.commit.query"), 1);
  EXPECT_EQ(f.metrics.CounterValue("txn.commit.update"), 1);
  EXPECT_EQ(f.metrics.CounterValue("txn.begin.query"), 1);
  EXPECT_EQ(f.metrics.CounterValue("txn.begin.update"), 1);
}

TEST(TransactionManagerDeathTest, QueryWriteIsProgrammerError) {
  EngineFixture f;
  const TxnId q = f.manager.Begin(TxnType::kQuery, Ts(1), BoundSpec());
  EXPECT_DEATH(f.manager.Write(q, 0, 1), "read-only");
}

}  // namespace
}  // namespace esr
