// SpinMutex (common/spin_mutex.h): mutual exclusion under real
// contention, and a waiter that outlasts the spin window parks and still
// gets the lock.

#include "common/spin_mutex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace esr {
namespace {

TEST(SpinMutexTest, ConcurrentIncrementsAreNeverLost) {
  constexpr int kThreads = 4;
  constexpr int64_t kIncrements = 50000;
  SpinMutex mu;
  int64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int64_t i = 0; i < kIncrements; ++i) {
        std::lock_guard<SpinMutex> lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(SpinMutexTest, TryLockFailsWhileHeld) {
  SpinMutex mu;
  mu.lock();
  std::thread other([&] { EXPECT_FALSE(mu.try_lock()); });
  other.join();
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(SpinMutexTest, WaiterPastTheSpinWindowParksAndAcquires) {
  SpinMutex mu;
  std::atomic<bool> held{false};
  std::atomic<bool> acquired{false};
  mu.lock();
  std::thread waiter([&] {
    held.store(true, std::memory_order_release);
    std::lock_guard<SpinMutex> lock(mu);
    acquired.store(true, std::memory_order_release);
  });
  while (!held.load(std::memory_order_acquire)) {
  }
  // Far longer than kSpinTries pauses: the waiter must be parked, not
  // through.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(acquired.load(std::memory_order_acquire));
  mu.unlock();
  waiter.join();
  EXPECT_TRUE(acquired.load(std::memory_order_acquire));
}

}  // namespace
}  // namespace esr
