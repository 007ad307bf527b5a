// ExecuteBatch at the shapes its prefetch pass sees: a four-shard engine
// over a store far larger than a batch, batches of at least 128 ops from
// distinct transactions, and the first and last local id of every shard
// in every round. A twin engine built from the same options runs the same
// ops one by one through Read/Write, and the two must agree on every
// OpResult, on every final object value, and on leaving no transaction
// active.
//
// Within a round each transaction owns its objects, so no op touches
// another batch member's footprint: a batch's deferred abort teardown
// then cannot be observed, and the one-by-one order need not follow the
// batch's shard grouping. Conflicts come from earlier rounds' committed
// state instead: timestamps are drawn at random, so late reads and
// writes, relaxed (inconsistent) reads and bound aborts all occur.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/sharded/sharded_engine.h"

namespace esr {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kObjects = 1024;
constexpr size_t kTxnsPerRound = 192;
constexpr size_t kOpsPerTxn = 2;
constexpr size_t kMinBatch = 128;
constexpr int kRounds = 8;

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

std::unique_ptr<ShardedEngine> MakeEngine(const GroupSchema* schema,
                                          MetricRegistry* metrics,
                                          size_t num_objects) {
  ObjectStoreOptions store;
  store.num_objects = num_objects;
  store.seed = 7;
  ShardedEngineOptions options;
  options.num_shards = kShards;
  return std::make_unique<ShardedEngine>(options, store, schema, metrics);
}

class ExecuteBatchTest : public ::testing::Test {
 protected:
  ExecuteBatchTest()
      : batched_(MakeEngine(&schema_, &batched_metrics_, kObjects)),
        single_(MakeEngine(&schema_, &single_metrics_, kObjects)) {}

  /// The first and last local id of every shard, as global ids.
  std::vector<ObjectId> ShardEdges() const {
    const ShardMap& map = batched_->shard_map();
    std::vector<ObjectId> edges;
    for (size_t s = 0; s < kShards; ++s) {
      edges.push_back(map.GlobalId(s, 0));
      edges.push_back(
          map.GlobalId(s, static_cast<ObjectId>(map.CountFor(s) - 1)));
    }
    return edges;
  }

  GroupSchema schema_;
  MetricRegistry batched_metrics_;
  MetricRegistry single_metrics_;
  std::unique_ptr<ShardedEngine> batched_;
  std::unique_ptr<ShardedEngine> single_;
};

TEST_F(ExecuteBatchTest, LargeBatchesMatchOneByOneExecution) {
  Rng rng(2027);
  const std::vector<ObjectId> edges = ShardEdges();
  ASSERT_EQ(edges.back(), kObjects - 1);
  std::vector<ObjectId> objects(kObjects);
  for (ObjectId id = 0; id < kObjects; ++id) objects[id] = id;
  OpBatch batch;
  int64_t ops = 0, relaxed = 0, aborts = 0, edge_ops = 0;

  for (int round = 0; round < kRounds; ++round) {
    // Each transaction owns kOpsPerTxn objects this round; the shard
    // edges lead the list so every round touches all of them.
    std::vector<ObjectId> pool;
    for (ObjectId id : objects) {
      if (std::find(edges.begin(), edges.end(), id) == edges.end()) {
        pool.push_back(id);
      }
    }
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1],
                pool[static_cast<size_t>(rng.UniformInt(0, i - 1))]);
    }
    pool.insert(pool.begin(), edges.begin(), edges.end());

    struct Member {
      TxnId txn;
      bool is_query;
      bool live;
    };
    std::vector<Member> members;
    for (size_t k = 0; k < kTxnsPerRound; ++k) {
      const bool is_query = rng.Bernoulli(0.5);
      const Timestamp ts{rng.UniformInt(1, 1'000'000) * 1000 +
                             static_cast<int64_t>(k),
                         0};
      const BoundSpec bounds = BoundSpec::TransactionOnly(
          rng.Bernoulli(0.25) ? 0 : rng.UniformDouble(0, 20000));
      const TxnType type = is_query ? TxnType::kQuery : TxnType::kUpdate;
      const TxnId a = batched_->Begin(type, ts, bounds);
      const TxnId b = single_->Begin(type, ts, bounds);
      ASSERT_EQ(a, b);
      members.push_back(Member{a, is_query, true});
    }

    for (size_t step = 0; step < kOpsPerTxn; ++step) {
      batch.reqs.clear();
      std::vector<size_t> who;
      for (size_t k = 0; k < members.size(); ++k) {
        if (!members[k].live) continue;
        const ObjectId object = pool[k * kOpsPerTxn + step];
        // Updates read their first object and write their second.
        const bool is_write = !members[k].is_query && step == 1;
        const Value value = is_write ? rng.UniformInt(1000, 9999) : 0;
        batch.reqs.push_back(OpRequest{members[k].txn, object, is_write,
                                       value});
        who.push_back(k);
        if (std::find(edges.begin(), edges.end(), object) != edges.end()) {
          ++edge_ops;
        }
      }
      ASSERT_GE(batch.reqs.size(), kMinBatch) << "round " << round;
      batched_->ExecuteBatch(batch);
      ASSERT_EQ(batch.results.size(), batch.reqs.size());
      for (size_t i = 0; i < batch.reqs.size(); ++i) {
        const OpRequest& req = batch.reqs[i];
        const OpResult expected =
            req.is_write ? single_->Write(req.txn, req.object, req.value)
                         : single_->Read(req.txn, req.object);
        ASSERT_TRUE(SameResult(expected, batch.results[i]))
            << "round " << round << " txn " << req.txn << " object "
            << req.object << ": one by one " << Describe(expected)
            << " vs batched " << Describe(batch.results[i]);
        // An owned footprint never waits on another transaction.
        ASSERT_NE(expected.kind, OpResult::Kind::kWait);
        ++ops;
        if (expected.relaxed) ++relaxed;
        if (expected.kind == OpResult::Kind::kAbort) {
          ++aborts;
          members[who[i]].live = false;
        }
      }
    }

    for (const Member& m : members) {
      if (!m.live) continue;
      ASSERT_TRUE(batched_->Commit(m.txn).ok());
      ASSERT_TRUE(single_->Commit(m.txn).ok());
    }
  }

  // The schedule reached the paths the comparison is meant to cover.
  EXPECT_GT(relaxed, 0);
  EXPECT_GT(aborts, 0);
  EXPECT_EQ(edge_ops, static_cast<int64_t>(kRounds * edges.size()));
  EXPECT_GE(ops, static_cast<int64_t>(kRounds * kOpsPerTxn * kMinBatch));

  EXPECT_EQ(batched_->num_active(), 0u);
  EXPECT_EQ(single_->num_active(), 0u);
  for (ObjectId id = 0; id < kObjects; ++id) {
    ASSERT_EQ(batched_->ObjectAt(id).value(), single_->ObjectAt(id).value())
        << "object " << id;
  }
}

// The prefetch pass computes each record's address before any latch is
// taken, so it is the first to see a bad object id. It must still die on
// the store's range check rather than prefetch past the shard's records.
TEST_F(ExecuteBatchTest, OutOfRangeObjectDiesOnTheStoreRangeCheck) {
  const TxnId q1 = batched_->Begin(TxnType::kQuery, Timestamp{1, 0},
                                   BoundSpec::TransactionOnly(kUnbounded));
  const TxnId q2 = batched_->Begin(TxnType::kQuery, Timestamp{2, 0},
                                   BoundSpec::TransactionOnly(kUnbounded));
  OpBatch batch;
  batch.reqs.push_back(OpRequest{q1, 0, false, 0});
  batch.reqs.push_back(
      OpRequest{q2, static_cast<ObjectId>(kObjects), false, 0});
  EXPECT_DEATH(batched_->ExecuteBatch(batch), "out of range");
}

}  // namespace
}  // namespace esr
