// The engine outside the simulator: real std::thread clients hammering
// one Server through the public API. Checks thread safety, progress
// (no deadlock — the TO wait graph is acyclic), shadow recovery, and the
// ESR guarantee under true concurrency.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "api/database.h"
#include "common/random.h"

namespace esr {
namespace {

constexpr size_t kObjects = 16;
constexpr Value kInitialValue = 10'000;

ServerOptions MakeOptions() {
  ServerOptions opt;
  opt.store.num_objects = kObjects;
  opt.store.seed = 9;
  return opt;
}

class ThreadedTest : public ::testing::Test {
 protected:
  ThreadedTest() : db_(MakeOptions()) {
    for (ObjectId id = 0; id < kObjects; ++id) {
      EXPECT_TRUE(db_.LoadValue(id, kInitialValue).ok());
    }
  }

  Database db_;
};

TEST_F(ThreadedTest, ConcurrentTransfersPreserveTotal) {
  constexpr int kThreads = 4;
  constexpr int kTransfersPerThread = 200;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &committed] {
      Session session = db_.CreateSession(static_cast<SiteId>(t + 1));
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kTransfersPerThread; ++i) {
        const ObjectId src = static_cast<ObjectId>(
            rng.UniformInt(0, kObjects - 1));
        ObjectId dst =
            static_cast<ObjectId>(rng.UniformInt(0, kObjects - 1));
        if (dst == src) dst = (dst + 1) % kObjects;
        const Value amount = rng.UniformInt(1, 50);
        const Status status = session.RunUpdate(
            [&](TxnHandle& txn) -> Status {
              const OpResult a = txn.Read(src);
              if (!a.ok()) return Status::Aborted("src");
              const OpResult b = txn.Read(dst);
              if (!b.ok()) return Status::Aborted("dst");
              if (!txn.Write(src, a.value - amount).ok()) {
                return Status::Aborted("wsrc");
              }
              if (!txn.Write(dst, b.value + amount).ok()) {
                return Status::Aborted("wdst");
              }
              return Status::OK();
            },
            BoundSpec::TransactionOnly(0), /*max_restarts=*/100000);
        if (status.ok()) ++committed;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(committed.load(), kThreads * kTransfersPerThread);
  Value total = 0;
  for (ObjectId id = 0; id < kObjects; ++id) {
    total += *db_.PeekValue(id);
    EXPECT_FALSE(db_.server().object(id).has_uncommitted_write());
  }
  EXPECT_EQ(total, static_cast<Value>(kObjects) * kInitialValue);
}

TEST_F(ThreadedTest, QueriesBoundedWhileTransfersRun) {
  std::atomic<bool> stop{false};
  // Two writer threads run sum-preserving transfers with TEL = 0.
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([this, t, &stop] {
      Session session = db_.CreateSession(static_cast<SiteId>(t + 1));
      Rng rng(static_cast<uint64_t>(t) + 77);
      while (!stop.load(std::memory_order_relaxed)) {
        const ObjectId src =
            static_cast<ObjectId>(rng.UniformInt(0, kObjects - 1));
        const ObjectId dst = static_cast<ObjectId>(
            (src + 1 + rng.UniformInt(0, kObjects - 2)) % kObjects);
        const Value amount = rng.UniformInt(1, 100);
        (void)session.RunUpdate(
            [&](TxnHandle& txn) -> Status {
              const OpResult a = txn.Read(src);
              if (!a.ok()) return Status::Aborted("src");
              const OpResult b = txn.Read(dst);
              if (!b.ok()) return Status::Aborted("dst");
              if (!txn.Write(src, a.value - amount).ok()) {
                return Status::Aborted("wsrc");
              }
              if (!txn.Write(dst, b.value + amount).ok()) {
                return Status::Aborted("wdst");
              }
              return Status::OK();
            },
            BoundSpec::TransactionOnly(0), /*max_restarts=*/1000);
      }
    });
  }

  // Reader thread: full-universe ESR sums must stay within TIL of the
  // invariant total (transfers are sum-preserving and consistent).
  constexpr Inconsistency kTil = 2'000.0;
  const Value expected_total = static_cast<Value>(kObjects) * kInitialValue;
  std::vector<ObjectId> all;
  for (ObjectId id = 0; id < kObjects; ++id) all.push_back(id);
  Session reader = db_.CreateSession(42);
  int committed_queries = 0;
  for (int i = 0; i < 50; ++i) {
    const auto result = reader.AggregateQuery(
        all, AggregateKind::kSum, BoundSpec::TransactionOnly(kTil),
        /*max_restarts=*/1000);
    if (!result.ok()) continue;
    ++committed_queries;
    EXPECT_LE(result->imported, kTil);
    EXPECT_LE(std::abs(result->outcome.result -
                       static_cast<double>(expected_total)),
              result->imported + 1e-6)
        << "sum " << result->outcome.result << " imported "
        << result->imported;
  }
  stop.store(true);
  for (auto& thread : writers) thread.join();
  EXPECT_GT(committed_queries, 0);
}

TEST_F(ThreadedTest, ManySessionsUniqueTimestamps) {
  // Sessions on distinct sites never collide even when begun in parallel.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::mutex mu;
  std::set<std::pair<int64_t, uint32_t>> seen;
  std::atomic<bool> duplicate{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &mu, &seen, &duplicate] {
      Session session = db_.CreateSession(static_cast<SiteId>(t + 1));
      for (int i = 0; i < 100; ++i) {
        TxnHandle txn = session.Begin(TxnType::kQuery, BoundSpec());
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!seen.emplace(txn.ts().micros, txn.ts().site).second) {
            duplicate.store(true);
          }
        }
        EXPECT_TRUE(txn.Abort().ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(duplicate.load());
}

}  // namespace
}  // namespace esr
