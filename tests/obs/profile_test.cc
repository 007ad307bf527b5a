// Wall-clock profiler (obs/profile.h): contention-site accounting and
// blocked-by attribution, phase self-time nesting, the ProfiledMutex
// fast/contended paths, gauge/histogram export, and the JSON writer.
//
// ContentionSite and the JSON writer are probe-independent and tested in
// every build. The probe-driven pieces (ScopedPhaseTimer, ProfiledMutex)
// route through GlobalProfiler() and fold to no-ops under
// ESR_DISABLE_TRACING, so those tests are compiled out with them.

#include "obs/profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "obs/json_value.h"

namespace esr {
namespace {

TEST(ContentionSiteTest, CountsAcquisitionsWaitsAndConflicts) {
  ContentionSite site("test.site");
  for (int i = 0; i < 10; ++i) site.RecordAcquisition();
  site.RecordWait(2000000, /*holder=*/7);  // 2 ms
  site.RecordWait(1000000, /*holder=*/7);
  site.RecordConflict(/*holder=*/9);

  const ContentionSite::Snapshot s = site.TakeSnapshot();
  EXPECT_EQ(s.name, "test.site");
  EXPECT_EQ(s.acquisitions, 10u);
  EXPECT_EQ(s.contended, 2u);
  EXPECT_EQ(s.conflicts, 1u);
  EXPECT_EQ(s.total_wait_ns, 3000000u);
  EXPECT_EQ(s.max_wait_ns, 2000000u);
}

TEST(ContentionSiteTest, BlockersRankedByTotalWaitInflicted) {
  ContentionSite site("test.blockers");
  site.RecordWait(1000000, 1);
  site.RecordWait(5000000, 2);  // txn 2 inflicted the most wait
  site.RecordWait(500000, 1);
  site.RecordConflict(3);  // untimed: counted but no wait time

  const ContentionSite::Snapshot s = site.TakeSnapshot();
  ASSERT_EQ(s.blockers.size(), 3u);
  EXPECT_EQ(s.blockers[0].txn, 2u);
  EXPECT_EQ(s.blockers[0].total_wait_ns, 5000000u);
  EXPECT_EQ(s.blockers[1].txn, 1u);
  EXPECT_EQ(s.blockers[1].waits, 2u);
  EXPECT_EQ(s.blockers[2].txn, 3u);
  EXPECT_EQ(s.blockers[2].total_wait_ns, 0u);
}

TEST(ContentionSiteTest, UnknownHolderIsNotBlamed) {
  ContentionSite site("test.unknown");
  site.RecordWait(1000000, kInvalidTxnId);
  const ContentionSite::Snapshot s = site.TakeSnapshot();
  EXPECT_EQ(s.contended, 1u);
  EXPECT_TRUE(s.blockers.empty());
}

TEST(ContentionSiteTest, WaitPercentilesBracketTheSamples) {
  ContentionSite site("test.pct");
  // 90 fast waits (~100 us) and 10 slow ones (~6.5 ms): p50 must sit near
  // the fast mode, p99 near the slow one (log2 buckets, geometric mid).
  for (int i = 0; i < 90; ++i) site.RecordWait(100000, 1);
  for (int i = 0; i < 10; ++i) site.RecordWait(6500000, 1);
  const ContentionSite::Snapshot s = site.TakeSnapshot();
  const double p50 = s.WaitPercentileUs(0.5);
  const double p99 = s.WaitPercentileUs(0.99);
  EXPECT_GT(p50, 50.0);
  EXPECT_LT(p50, 200.0);
  EXPECT_GT(p99, 3000.0);
  EXPECT_LT(p99, 13000.0);
  EXPECT_LE(p50, p99);
}

TEST(ContentionSiteTest, ResetClearsEverything) {
  ContentionSite site("test.reset");
  site.RecordAcquisition();
  site.RecordWait(1000, 5);
  site.Reset();
  const ContentionSite::Snapshot s = site.TakeSnapshot();
  EXPECT_EQ(s.acquisitions, 0u);
  EXPECT_EQ(s.contended, 0u);
  EXPECT_EQ(s.total_wait_ns, 0u);
  EXPECT_TRUE(s.blockers.empty());
}

TEST(ProfilerTest, SiteLookupIsStableAndNamed) {
  Profiler profiler;
  ContentionSite* a = profiler.site("alpha");
  ContentionSite* b = profiler.site("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, profiler.site("alpha"));
  EXPECT_EQ(a->name(), "alpha");
}

TEST(ProfileJsonTest, WritesParseableDocumentWithAllSections) {
  ProfileSnapshot snap;
  snap.threads.resize(1);
  snap.threads[0].lane = 3;
  PhaseSnapshot& lock_wait =
      snap.threads[0].phases[static_cast<size_t>(ProfilePhase::kLockWait)];
  lock_wait.count = 4;
  lock_wait.self_ns = 8000000;  // 8 ms
  for (int i = 0; i < 4; ++i) lock_wait.scope_ms.Record(2.0);
  snap.phases[static_cast<size_t>(ProfilePhase::kLockWait)] = lock_wait;

  ContentionSite site("json.site");
  site.RecordAcquisition();
  site.RecordWait(3000000, 11);
  snap.sites.push_back(site.TakeSnapshot());

  ProfileTxnTotals txn;
  txn.count = 2;
  txn.total_ms = 10.0;
  std::ostringstream out;
  WriteProfileJson(snap, txn, /*enabled=*/true, out);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(out.str(), &root, &error)) << error;
  const JsonValue* profile = root.Find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_DOUBLE_EQ(profile->Find("txn")->NumberOr("count", 0), 2.0);
  EXPECT_DOUBLE_EQ(profile->NumberOr("coverage_ms", 0), 8.0);

  const JsonValue* phases = profile->Find("phases");
  ASSERT_NE(phases, nullptr);
  const JsonValue* lw = phases->Find("lock_wait");
  ASSERT_NE(lw, nullptr);
  EXPECT_DOUBLE_EQ(lw->NumberOr("count", 0), 4.0);
  EXPECT_DOUBLE_EQ(lw->NumberOr("self_ms", 0), 8.0);
  EXPECT_DOUBLE_EQ(lw->NumberOr("frac_of_txn", 0), 0.8);
  EXPECT_DOUBLE_EQ(lw->NumberOr("p50_ms", 0), 2.0);

  const JsonValue* threads = profile->Find("threads");
  ASSERT_NE(threads, nullptr);
  ASSERT_EQ(threads->array.size(), 1u);
  EXPECT_DOUBLE_EQ(threads->array[0].NumberOr("lane", 0), 3.0);

  const JsonValue* sites = profile->Find("sites");
  ASSERT_NE(sites, nullptr);
  ASSERT_EQ(sites->array.size(), 1u);
  const JsonValue& s = sites->array[0];
  EXPECT_EQ(s.Find("name")->string, "json.site");
  EXPECT_DOUBLE_EQ(s.NumberOr("total_wait_ms", 0), 3.0);
  const JsonValue* blockers = s.Find("blockers");
  ASSERT_NE(blockers, nullptr);
  ASSERT_EQ(blockers->array.size(), 1u);
  EXPECT_DOUBLE_EQ(blockers->array[0].NumberOr("txn", 0), 11.0);
}

#ifndef ESR_TRACE_DISABLED

// RAII guard: enables the global profiler on a clean slate and restores
// the disabled default on exit, so probe tests cannot leak state into
// each other (the global profiler is process-wide).
class ScopedGlobalProfiler {
 public:
  ScopedGlobalProfiler() {
    GlobalProfiler().Reset();
    GlobalProfiler().set_enabled(true);
  }
  ~ScopedGlobalProfiler() {
    GlobalProfiler().set_enabled(false);
    GlobalProfiler().Reset();
  }
};

void SpinFor(std::chrono::microseconds d) {
  const int64_t until = ProfileNowNs() + d.count() * 1000;
  while (ProfileNowNs() < until) {
  }
}

TEST(ScopedPhaseTimerTest, SelfTimeNestingSettlesIntoParent) {
  ScopedGlobalProfiler guard;
  {
    ScopedPhaseTimer outer(ProfilePhase::kValidate);
    SpinFor(std::chrono::microseconds(200));
    {
      ScopedPhaseTimer inner(ProfilePhase::kBoundWalk);
      SpinFor(std::chrono::microseconds(200));
    }
    SpinFor(std::chrono::microseconds(200));
  }
  const ProfileSnapshot snap = GlobalProfiler().Snapshot();
  const PhaseSnapshot& validate =
      snap.phases[static_cast<size_t>(ProfilePhase::kValidate)];
  const PhaseSnapshot& walk =
      snap.phases[static_cast<size_t>(ProfilePhase::kBoundWalk)];
  EXPECT_EQ(validate.count, 1u);
  EXPECT_EQ(walk.count, 1u);
  // The child's spin is excluded from the parent's self-time but included
  // in the parent's full-scope duration.
  EXPECT_GE(validate.self_ns, 400000u);
  EXPECT_GE(walk.self_ns, 200000u);
  EXPECT_LT(validate.self_ns, validate.scope_ms.max() * 1e6 + 1.0);
  EXPECT_GE(validate.scope_ms.max(), 0.6);  // >= 600 us total scope
  // Self-times sum to the covered wall-clock: no double counting.
  EXPECT_LE(snap.TotalSelfNs(),
            static_cast<uint64_t>(validate.scope_ms.max() * 1e6) + 200000u);
}

TEST(ScopedPhaseTimerTest, DisabledProfilerRecordsNothing) {
  GlobalProfiler().Reset();
  GlobalProfiler().set_enabled(false);
  {
    ScopedPhaseTimer t(ProfilePhase::kApply);
    SpinFor(std::chrono::microseconds(50));
  }
  const ProfileSnapshot snap = GlobalProfiler().Snapshot();
  EXPECT_EQ(snap.TotalSelfNs(), 0u);
  for (const ThreadProfile& t : snap.threads) {
    EXPECT_EQ(t.phases[static_cast<size_t>(ProfilePhase::kApply)].count, 0u);
  }
}

TEST(ProfiledMutexTest, ContendedLockBlamesThePublishedHolder) {
  ScopedGlobalProfiler guard;
  ProfiledMutex mu("test.profiled_mu");
  std::atomic<bool> held{false};

  std::thread holder([&] {
    mu.lock();
    mu.set_holder(42);
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mu.unlock();
  });
  while (!held.load(std::memory_order_acquire)) {
  }
  {
    // Contended path: must wait out the holder's sleep and blame txn 42.
    std::lock_guard<ProfiledMutex> lock(mu);
  }
  holder.join();

  const ProfileSnapshot snap = GlobalProfiler().Snapshot();
  const ContentionSite::Snapshot* site = nullptr;
  for (const auto& s : snap.sites) {
    if (s.name == "test.profiled_mu") site = &s;
  }
  ASSERT_NE(site, nullptr);
  EXPECT_GE(site->acquisitions, 1u);
  EXPECT_GE(site->contended, 1u);
  EXPECT_GE(site->total_wait_ns, 1000000u);  // waited >= 1 ms of the 20
  ASSERT_FALSE(site->blockers.empty());
  EXPECT_EQ(site->blockers[0].txn, 42u);
}

TEST(ProfiledMutexTest, WaitTheSpinAbsorbsStillBlamesTheHolder) {
  ScopedGlobalProfiler guard;
  ProfiledMutex mu("test.profiled_mu_spin");
  ContentionSite* site = GlobalProfiler().site("test.profiled_mu_spin");
  // The holder lets go half a microsecond after it sees the waiter's
  // acquisition attempt counted: inside the waiter's spin window, long
  // before it would park. An attempt can still miss — the scheduler may
  // run the release before the waiter's first try_lock (no contention),
  // or between unlock()'s holder reset and the lock release (no one to
  // blame) — so try until one attempt was contended and blamed.
  for (int attempt = 0;
       attempt < 100 && site->TakeSnapshot().blockers.empty(); ++attempt) {
    std::atomic<bool> held{false};
    std::thread holder([&] {
      mu.lock();
      mu.set_holder(42);
      const uint64_t attempts = site->TakeSnapshot().acquisitions;
      held.store(true, std::memory_order_release);
      while (site->TakeSnapshot().acquisitions == attempts) {
      }
      const int64_t until = ProfileNowNs() + 500;
      while (ProfileNowNs() < until) {
      }
      mu.unlock();
    });
    while (!held.load(std::memory_order_acquire)) {
    }
    {
      std::lock_guard<ProfiledMutex> lock(mu);
    }
    holder.join();
  }

  const ContentionSite::Snapshot snap = site->TakeSnapshot();
  EXPECT_GE(snap.contended, 1u);
  EXPECT_GT(snap.total_wait_ns, 0u);
  ASSERT_FALSE(snap.blockers.empty()) << "no attempt collided with txn 42";
  EXPECT_EQ(snap.blockers[0].txn, 42u);
}

TEST(ProfilerTest, SnapshotKeepsThreadLanesDistinct) {
  ScopedGlobalProfiler guard;
  constexpr int kThreads = 3;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      ScopedPhaseTimer t(ProfilePhase::kCommit);
      SpinFor(std::chrono::microseconds(100));
    });
  }
  for (std::thread& t : threads) t.join();

  const ProfileSnapshot snap = GlobalProfiler().Snapshot();
  ASSERT_GE(snap.threads.size(), static_cast<size_t>(kThreads));
  uint64_t commits = 0;
  std::vector<uint32_t> lanes;
  for (const ThreadProfile& t : snap.threads) {
    lanes.push_back(t.lane);
    commits += t.phases[static_cast<size_t>(ProfilePhase::kCommit)].count;
  }
  EXPECT_EQ(commits, static_cast<uint64_t>(kThreads));
  std::sort(lanes.begin(), lanes.end());
  EXPECT_EQ(std::unique(lanes.begin(), lanes.end()), lanes.end())
      << "thread lanes must be distinct";
}

TEST(ProfilerTest, ExportsLiveGaugesAndPhaseHistograms) {
  ScopedGlobalProfiler guard;
  {
    ScopedPhaseTimer t(ProfilePhase::kApply);
    SpinFor(std::chrono::microseconds(100));
  }
  GlobalProfiler().site("gauge.site")->RecordAcquisition();
  GlobalProfiler().site("gauge.site")->RecordWait(2000000, 5);

  MetricRegistry reg;
  GlobalProfiler().ExportLiveGauges(&reg);
  const Gauge* count = reg.FindGauge("profile.phase_count.apply");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->value(), 1.0);
  const Gauge* self = reg.FindGauge("profile.phase_self_ms.apply");
  ASSERT_NE(self, nullptr);
  EXPECT_GT(self->value(), 0.05);
  const Gauge* wait = reg.FindGauge("profile.site.gauge.site.wait_ms");
  ASSERT_NE(wait, nullptr);
  EXPECT_DOUBLE_EQ(wait->value(), 2.0);

  GlobalProfiler().set_enabled(false);  // quiesce before histogram export
  GlobalProfiler().ExportPhaseHistograms(&reg);
  const Histogram* hist = reg.FindHistogram("profile.phase_ms.apply");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 1u);
  EXPECT_GT(hist->mean(), 0.05);
}

#endif  // ESR_TRACE_DISABLED

}  // namespace
}  // namespace esr
