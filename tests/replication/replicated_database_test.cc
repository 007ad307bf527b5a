#include "replication/replicated_database.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace esr {
namespace {

Timestamp Ts(int64_t t) { return Timestamp{t, 0}; }

struct ReplFixture {
  Server primary{ServerOpts()};
  ReplicatedDatabase db;

  static ReplicationOptions Replication(int replicas = 2,
                                        double delay_ms = 100.0) {
    ReplicationOptions opt;
    opt.num_replicas = replicas;
    opt.propagation_delay_ms = delay_ms;
    return opt;
  }

  static ServerOptions ServerOpts() {
    ServerOptions opt;
    opt.store.num_objects = 16;
    opt.store.seed = 8;
    return opt;
  }

  ReplFixture() : db(Replication(), &primary) {}

  /// Runs a single-object update on the primary at virtual time `now`.
  void CommitWrite(int64_t ts, ObjectId object, Value value, SimTime now) {
    const TxnId txn = primary.Begin(TxnType::kUpdate, Ts(ts), BoundSpec());
    ASSERT_EQ(primary.Write(txn, object, value).kind, OpResult::Kind::kOk);
    ASSERT_TRUE(db.Commit(txn, now).ok());
  }
};

TEST(ReplicatedDatabaseTest, ReplicasStartIdenticalToPrimary) {
  ReplFixture f;
  for (ObjectId id = 0; id < 16; ++id) {
    const Value primary = f.primary.object(id).value();
    EXPECT_EQ(f.db.PeekReplica(0, id), primary);
    EXPECT_EQ(f.db.PeekReplica(1, id), primary);
    EXPECT_EQ(f.db.DivergenceEstimate(0, id), 0.0);
  }
}

TEST(ReplicatedDatabaseTest, WritesPropagateAfterDelay) {
  ReplFixture f;
  const Value before = f.db.PeekReplica(0, 3);
  f.CommitWrite(10, 3, before + 500, /*now=*/0);
  // Before the delay elapses the replica still has the old value and a
  // non-zero divergence estimate.
  f.db.AdvanceTo(50 * kMicrosPerMilli);
  EXPECT_EQ(f.db.PeekReplica(0, 3), before);
  EXPECT_EQ(f.db.DivergenceEstimate(0, 3), 500.0);
  EXPECT_EQ(f.db.PendingWrites(0), 1u);
  // After the delay it catches up and the estimate returns to zero.
  f.db.AdvanceTo(100 * kMicrosPerMilli);
  EXPECT_EQ(f.db.PeekReplica(0, 3), before + 500);
  EXPECT_EQ(f.db.DivergenceEstimate(0, 3), 0.0);
  EXPECT_EQ(f.db.PendingWrites(0), 0u);
}

TEST(ReplicatedDatabaseTest, AbortedTransactionsNeverPropagate) {
  ReplFixture f;
  const Value before = f.db.PeekReplica(0, 3);
  const TxnId txn = f.primary.Begin(TxnType::kUpdate, Ts(10), BoundSpec());
  ASSERT_EQ(f.primary.Write(txn, 3, before + 500).kind, OpResult::Kind::kOk);
  ASSERT_TRUE(f.primary.Abort(txn).ok());
  f.db.AdvanceTo(1000 * kMicrosPerMilli);
  EXPECT_EQ(f.db.PeekReplica(0, 3), before);
  EXPECT_EQ(f.db.PendingWrites(0), 0u);
}

TEST(ReplicatedDatabaseTest, EstimateAccumulatesAcrossWrites) {
  ReplFixture f;
  const Value before = f.db.PeekReplica(0, 3);
  f.CommitWrite(10, 3, before + 300, 0);
  f.CommitWrite(20, 3, before + 300 - 200, 0);
  // Conservative: |+300| + |-200| = 500 even though the net change is
  // 100 (triangle inequality makes this an upper bound, never an
  // underestimate).
  EXPECT_EQ(f.db.DivergenceEstimate(0, 3), 500.0);
  const auto read = f.db.ReadAtReplica(0, 3, /*budget=*/500.0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->true_divergence, 100.0);
  EXPECT_GE(read->estimated_divergence, read->true_divergence);
}

TEST(ReplicatedDatabaseTest, BoundedReadRejectsWhenEstimateExceedsBudget) {
  ReplFixture f;
  const Value before = f.db.PeekReplica(0, 3);
  f.CommitWrite(10, 3, before + 500, 0);
  EXPECT_EQ(f.db.ReadAtReplica(0, 3, 499.0).status().code(),
            StatusCode::kBoundViolation);
  const auto admitted = f.db.ReadAtReplica(0, 3, 500.0);
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted->value, before);  // stale but bounded
}

TEST(ReplicatedDatabaseTest, ZeroBudgetRequiresFullSync) {
  ReplFixture f;
  const Value before = f.db.PeekReplica(0, 3);
  f.CommitWrite(10, 3, before + 500, 0);
  EXPECT_FALSE(f.db.ReadAtReplica(0, 3, 0.0).ok());
  f.db.SyncReplica(0);
  const auto read = f.db.ReadAtReplica(0, 3, 0.0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->value, before + 500);
  EXPECT_EQ(read->true_divergence, 0.0);
}

TEST(ReplicatedDatabaseTest, SumQueryAccumulatesBudget) {
  ReplFixture f;
  const Value v3 = f.db.PeekReplica(0, 3);
  const Value v4 = f.db.PeekReplica(0, 4);
  f.CommitWrite(10, 3, v3 + 300, 0);
  f.CommitWrite(20, 4, v4 + 300, 0);
  // 300 + 300 > 500: the query must be rejected at the second read.
  EXPECT_EQ(f.db.ReplicaSumQuery(0, {3, 4}, 500.0).status().code(),
            StatusCode::kBoundViolation);
  const auto admitted = f.db.ReplicaSumQuery(0, {3, 4}, 600.0);
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted->estimated_import, 600.0);
  EXPECT_EQ(admitted->sum, static_cast<double>(v3 + v4));  // stale values
}

TEST(ReplicatedDatabaseTest, PropertyEstimateAlwaysDominatesTruth) {
  // Random committed writes, partial propagation at random times: the
  // conservative estimate must never fall below the true divergence, and
  // sync must restore exact agreement.
  ReplFixture f;
  Rng rng(99);
  SimTime now = 0;
  int64_t ts = 1;
  for (int round = 0; round < 200; ++round) {
    const ObjectId object = static_cast<ObjectId>(rng.UniformInt(0, 15));
    const Value current = f.primary.object(object).value();
    const Value delta = rng.UniformInt(-400, 400);
    const TxnId txn =
        f.primary.Begin(TxnType::kUpdate, Ts(ts++), BoundSpec());
    ASSERT_EQ(f.primary.Write(txn, object, current + delta).kind,
              OpResult::Kind::kOk);
    ASSERT_TRUE(f.db.Commit(txn, now).ok());
    now += rng.UniformInt(0, 40) * kMicrosPerMilli;
    f.db.AdvanceTo(now);

    for (int replica = 0; replica < 2; ++replica) {
      for (ObjectId id = 0; id < 16; ++id) {
        const auto read = f.db.ReadAtReplica(replica, id, kUnbounded);
        ASSERT_TRUE(read.ok());
        EXPECT_GE(read->estimated_divergence + 1e-9,
                  read->true_divergence)
            << "replica " << replica << " object " << id;
      }
    }
  }
  for (int replica = 0; replica < 2; ++replica) {
    f.db.SyncReplica(replica);
    for (ObjectId id = 0; id < 16; ++id) {
      EXPECT_EQ(f.db.PeekReplica(replica, id),
                f.primary.object(id).value());
    }
  }
}

TEST(ReplicatedDatabaseTest, ReplicasProgressIndependently) {
  Server primary(ReplFixture::ServerOpts());
  ReplicatedDatabase db(ReplFixture::Replication(3, 100.0), &primary);
  const Value before = db.PeekReplica(0, 1);
  const TxnId txn = primary.Begin(TxnType::kUpdate, Ts(5), BoundSpec());
  ASSERT_EQ(primary.Write(txn, 1, before + 100).kind, OpResult::Kind::kOk);
  ASSERT_TRUE(db.Commit(txn, 0).ok());
  db.SyncReplica(1);  // only replica 1 catches up
  EXPECT_EQ(db.PeekReplica(0, 1), before);
  EXPECT_EQ(db.PeekReplica(1, 1), before + 100);
  EXPECT_EQ(db.PeekReplica(2, 1), before);
}

TEST(ReplicatedDatabaseTest, InvalidTargetsRejected) {
  ReplFixture f;
  EXPECT_EQ(f.db.ReadAtReplica(9, 0, 1.0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(f.db.ReadAtReplica(0, 999, 1.0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(f.db.ReplicaSumQuery(0, {}, 1.0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ReplicatedDatabaseTest, CommitPropagatesEachObjectOnceWithItsPreImage) {
  // Overwrites within one transaction and writes to several objects: the
  // commit queues each object once, weighted by its distance from the
  // committed pre-image, whatever the intermediate values were.
  ReplFixture f;
  const Value v3 = f.db.PeekReplica(0, 3);
  const Value v5 = f.db.PeekReplica(0, 5);
  const TxnId txn = f.primary.Begin(TxnType::kUpdate, Ts(10), BoundSpec());
  ASSERT_EQ(f.primary.Write(txn, 3, v3 + 900).kind, OpResult::Kind::kOk);
  ASSERT_EQ(f.primary.Write(txn, 5, v5 - 200).kind, OpResult::Kind::kOk);
  ASSERT_EQ(f.primary.Write(txn, 3, v3 + 100).kind, OpResult::Kind::kOk);
  ASSERT_TRUE(f.db.Commit(txn, 0).ok());
  EXPECT_EQ(f.db.PendingWrites(0), 2u);
  EXPECT_EQ(f.db.DivergenceEstimate(0, 3), 100.0);
  EXPECT_EQ(f.db.DivergenceEstimate(0, 5), 200.0);
  f.db.SyncReplica(0);
  EXPECT_EQ(f.db.PeekReplica(0, 3), v3 + 100);
  EXPECT_EQ(f.db.PeekReplica(0, 5), v5 - 200);
  // A commit of a finished transaction fails and queues nothing.
  EXPECT_EQ(f.db.Commit(txn, 0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(f.db.PendingWrites(1), 2u);
}

TEST(ReplicatedDatabaseDeathTest, PeekReplicaChecksObjectRange) {
  ReplFixture f;
  EXPECT_DEATH((void)f.db.PeekReplica(0, 16), "out of range");
}

}  // namespace
}  // namespace esr
