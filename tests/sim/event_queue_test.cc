#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace esr {
namespace {

TEST(EventQueueTest, StartsAtTimeZeroEmpty) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_FALSE(q.RunOne());
}

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueueTest, TiesBreakInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(10, [&] { order.push_back(2); });
  q.ScheduleAt(10, [&] { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, ScheduleAfterIsRelative) {
  EventQueue q;
  SimTime observed = -1;
  q.ScheduleAt(100, [&] {
    q.ScheduleAfter(50, [&] { observed = q.now(); });
  });
  q.RunAll();
  EXPECT_EQ(observed, 150);
}

TEST(EventQueueTest, PastEventsClampToNow) {
  EventQueue q;
  SimTime observed = -1;
  q.ScheduleAt(100, [&] {
    q.ScheduleAt(10, [&] { observed = q.now(); });  // in the past
  });
  q.RunAll();
  EXPECT_EQ(observed, 100);
}

TEST(EventQueueTest, RunUntilStopsAtBoundaryInclusive) {
  EventQueue q;
  int ran = 0;
  q.ScheduleAt(10, [&] { ++ran; });
  q.ScheduleAt(20, [&] { ++ran; });
  q.ScheduleAt(21, [&] { ++ran; });
  q.RunUntil(20);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntil(100);
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(q.now(), 100);  // clock advances to the horizon
}

TEST(EventQueueTest, EventsCanChainIndefinitely) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) q.ScheduleAfter(5, tick);
  };
  q.ScheduleAt(0, tick);
  q.RunAll();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(q.now(), 99 * 5);
  EXPECT_EQ(q.executed(), 100u);
}

TEST(EventQueueTest, RunAllGuardStopsRunaway) {
  EventQueue q;
  std::function<void()> forever = [&] { q.ScheduleAfter(1, forever); };
  q.ScheduleAt(0, forever);
  q.RunAll(/*max_events=*/500);
  EXPECT_EQ(q.executed(), 500u);
}

// --- Determinism suite: the kernel's FIFO-within-timestamp contract is
// what makes every simulation bit-reproducible, so it gets hammered
// beyond the basic three-event case above.

TEST(EventQueueDeterminismTest, SameTimestampStormKeepsFifoOrder) {
  EventQueue q;
  constexpr int kEvents = 10'000;
  std::vector<int> order;
  order.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    q.ScheduleAt(42, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  ASSERT_EQ(order.size(), static_cast<size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueDeterminismTest, InterleavedTimestampStormSortsStably) {
  // Schedule events across a handful of timestamps in a scrambled but
  // fixed pattern; within each timestamp the scheduling order must hold.
  EventQueue q;
  constexpr int kEvents = 5'000;
  std::vector<std::pair<SimTime, int>> executed;
  executed.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    const SimTime at = (i * 7919) % 10;  // deterministic scramble
    q.ScheduleAt(at, [&executed, at, i] { executed.push_back({at, i}); });
  }
  q.RunAll();
  ASSERT_EQ(executed.size(), static_cast<size_t>(kEvents));
  for (size_t i = 1; i < executed.size(); ++i) {
    ASSERT_LE(executed[i - 1].first, executed[i].first);
    if (executed[i - 1].first == executed[i].first) {
      ASSERT_LT(executed[i - 1].second, executed[i].second);
    }
  }
}

TEST(EventQueueDeterminismTest, ReentrantScheduleAtSameTimeRunsAfter) {
  // An event that schedules another event at the CURRENT time must see
  // it run after every already-queued event at that time (seq order).
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(10, [&] {
    order.push_back(1);
    q.ScheduleAt(10, [&] { order.push_back(3); });
  });
  q.ScheduleAt(10, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueDeterminismTest, IdenticalSchedulesExecuteIdentically) {
  auto run = [] {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 1'000; ++i) {
      q.ScheduleAt((i * 31) % 17, [&order, i] { order.push_back(i); });
    }
    q.RunAll();
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(EventQueueTest, OversizedCallbackRunsIntact) {
  // A capture bigger than the inline slot buffer takes the slab's
  // oversize path; the payload must arrive unscrambled.
  EventQueue q;
  struct BigPayload {
    long data[32];
  };
  BigPayload payload;
  for (int i = 0; i < 32; ++i) payload.data[i] = i * 1'000'003L;
  static_assert(sizeof(BigPayload) > 64, "must exceed inline storage");
  long sum = 0;
  q.ScheduleAt(5, [payload, &sum] {
    for (const long v : payload.data) sum += v;
  });
  q.RunAll();
  long expected = 0;
  for (int i = 0; i < 32; ++i) expected += i * 1'000'003L;
  EXPECT_EQ(sum, expected);
}

TEST(EventQueueTest, OversizedSlotsAreRecycled) {
  // Repeatedly scheduling oversized callbacks through the same queue
  // must reuse slots/blocks rather than grow without bound; this is a
  // behavioural check (counts), the allocation claim is covered by the
  // sanitizer jobs.
  EventQueue q;
  struct Big {
    char bytes[256];
  };
  Big big{};
  big.bytes[0] = 7;
  int ran = 0;
  for (int round = 0; round < 100; ++round) {
    q.ScheduleAfter(1, [big, &ran] { ran += big.bytes[0]; });
    q.RunAll();
  }
  EXPECT_EQ(ran, 700);
  EXPECT_EQ(q.executed(), 100u);
}

TEST(EventQueueTest, MoveOnlyCallablesAreSupported) {
  EventQueue q;
  auto payload = std::make_unique<int>(99);
  int seen = 0;
  q.ScheduleAt(1, [p = std::move(payload), &seen] { seen = *p; });
  q.RunAll();
  EXPECT_EQ(seen, 99);
}

TEST(EventQueueTest, DestructorReleasesPendingEvents) {
  // Pending callables (inline and oversized) must be destroyed with the
  // queue; shared_ptr use-counts make the destruction observable.
  auto tracker = std::make_shared<int>(0);
  struct Fat {
    char pad[200];
  };
  {
    EventQueue q;
    q.ScheduleAt(10, [tracker] { ++*tracker; });
    Fat fat{};
    q.ScheduleAt(20, [tracker, fat] { ++*tracker; (void)fat; });
    EXPECT_EQ(tracker.use_count(), 3);
  }
  EXPECT_EQ(tracker.use_count(), 1);
  EXPECT_EQ(*tracker, 0);  // never executed
}

}  // namespace
}  // namespace esr
