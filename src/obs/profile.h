#ifndef ESR_OBS_PROFILE_H_
#define ESR_OBS_PROFILE_H_

// Wall-clock observability for the real-thread path (threaded_server):
//
//  * ScopedPhaseTimer — per-phase cost attribution with self-time
//    nesting: a thread-local stack of open phases where opening a child
//    settles the elapsed segment into the parent's *self* time, so phase
//    self-times sum to exactly the covered wall-clock with no double
//    counting, while each phase also keeps a full-scope duration
//    histogram (p50–p999).
//  * ContentionSite / ProfiledMutex — per-site wait-time histograms,
//    acquisition counters, and blocked-by attribution (the holder's
//    TxnId read at wait start), for the engine latches, the 2PL lock
//    table's logical conflicts, and the hierarchy accumulator's charge
//    path.
//
// Clock domain: always the steady wall clock (ProfileNowNs), never the
// simulator's virtual time — the profiler answers "where do the real
// threads spend real time", the trace recorder's pluggable time source
// answers "when did this happen in the run's timeline" (DESIGN.md §7).
//
// Cost model mirrors the trace layer: every probe fast-path is one
// inline relaxed load of a constant-initialized flag plus a branch, and
// a build with ESR_DISABLE_TRACING compiles the probes out entirely
// (GlobalProfilerEnabled() folds to false). The cold reporting code
// (snapshots, JSON writer) stays linkable in every build.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/spin_mutex.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/trace.h"

namespace esr {

/// Where a real thread's time goes between a transaction's first Begin
/// and its commit. Client-side phases (kLockWait, kRpc) cover the waits
/// and pacing the threaded server's clients inject; engine-side phases
/// nest inside them via the self-time rule.
enum class ProfilePhase : uint8_t {
  /// Client-side backoff while an operation is blocked on an uncommitted
  /// writer (the engine returned kWait); blamed on the blocker.
  kLockWait = 0,
  /// Client-side RPC stand-in: the per-op pacing sleep.
  kRpc,
  /// In-engine operation service: latch wait plus the Fig. 3 decision
  /// logic, minus the nested bound-walk/apply below.
  kValidate,
  /// One bottom-up bound-check walk in the hierarchy accumulator.
  kBoundWalk,
  /// Applying a write to the object store (shadow-value install).
  kApply,
  /// Engine commit/abort processing (teardown, write install, releases).
  kCommit,
};
inline constexpr size_t kNumProfilePhases = 6;

const char* ProfilePhaseToString(ProfilePhase phase);

namespace internal {
/// Mirror of the global profiler's enabled flag, constant-initialized so
/// probes inlined anywhere read a well-defined `false` (same pattern as
/// g_global_trace_gate).
extern std::atomic<bool> g_global_profiler_enabled;
}  // namespace internal

/// Probe-site fast path: one inline relaxed load; constant false (so the
/// whole probe folds away) under ESR_DISABLE_TRACING.
inline bool GlobalProfilerEnabled() {
#ifdef ESR_TRACE_DISABLED
  return false;
#else
  return internal::g_global_profiler_enabled.load(std::memory_order_relaxed);
#endif
}

/// The profiler's clock: steady wall-clock nanoseconds.
inline int64_t ProfileNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One contention point (an engine latch, the 2PL lock table, the
/// accumulator's charge path): acquisition counters, a lock-free log2
/// wait-time histogram, and blocked-by attribution — who held the site
/// when the wait started, charged by total wait time. Counter updates
/// are relaxed atomics; only the contended slow path (RecordWait /
/// RecordConflict with a known holder) takes the blockers mutex.
class ContentionSite {
 public:
  /// log2(ns) wait buckets: bucket i covers [2^i, 2^(i+1)) ns, bucket 47
  /// tops out above 39 hours — nothing a run can exceed.
  static constexpr size_t kWaitBuckets = 48;

  struct BlockerEntry {
    TxnId txn = kInvalidTxnId;
    /// Timed waits plus untimed logical conflicts blamed on this txn.
    uint64_t waits = 0;
    uint64_t total_wait_ns = 0;
  };

  struct Snapshot {
    std::string name;
    uint64_t acquisitions = 0;
    /// Timed waits (the acquirer actually blocked).
    uint64_t contended = 0;
    /// Untimed logical conflicts (kWait/kDie grants, bound rejections).
    uint64_t conflicts = 0;
    uint64_t total_wait_ns = 0;
    uint64_t max_wait_ns = 0;
    std::vector<uint64_t> wait_buckets;
    /// Sorted by total_wait_ns descending, then waits descending.
    std::vector<BlockerEntry> blockers;

    /// Wait-time percentile estimate (microseconds) from the log2
    /// buckets, geometric midpoint per bucket; 0 with no timed waits.
    double WaitPercentileUs(double p) const;
  };

  explicit ContentionSite(std::string name) : name_(std::move(name)) {}

  ContentionSite(const ContentionSite&) = delete;
  ContentionSite& operator=(const ContentionSite&) = delete;

  const std::string& name() const { return name_; }

  /// One uncontended-or-not acquisition attempt (lock-free).
  void RecordAcquisition() {
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
  }

  /// A timed wait of `wait_ns`, blamed on `holder` (kInvalidTxnId when
  /// the holder was unknown at wait start).
  void RecordWait(int64_t wait_ns, TxnId holder);

  /// An untimed logical conflict (a kWait/kDie lock grant, a bound-walk
  /// rejection): counted, blamed, but contributing no wait time.
  void RecordConflict(TxnId holder);

  Snapshot TakeSnapshot() const;
  void Reset();

 private:
  const std::string name_;
  std::atomic<uint64_t> acquisitions_{0};
  std::atomic<uint64_t> contended_{0};
  std::atomic<uint64_t> conflicts_{0};
  std::atomic<uint64_t> total_wait_ns_{0};
  std::atomic<uint64_t> max_wait_ns_{0};
  std::atomic<uint64_t> wait_buckets_[kWaitBuckets] = {};
  mutable std::mutex blockers_mu_;
  std::unordered_map<TxnId, BlockerEntry> blockers_;
};

/// Per-phase aggregate, for one thread or merged across all of them.
struct PhaseSnapshot {
  uint64_t count = 0;
  /// Wall-clock attributed to this phase alone (children excluded).
  uint64_t self_ns = 0;
  /// Full-scope durations in milliseconds (children *included*); source
  /// of the p50–p999 columns.
  Histogram scope_ms;
};

struct ThreadProfile {
  /// ThreadLaneId() of the thread — matches the trace layer's lanes.
  uint32_t lane = 0;
  PhaseSnapshot phases[kNumProfilePhases];
};

struct ProfileSnapshot {
  std::vector<ThreadProfile> threads;
  /// Merged across threads (scope_ms via Histogram::Merge).
  PhaseSnapshot phases[kNumProfilePhases];
  std::vector<ContentionSite::Snapshot> sites;

  uint64_t TotalSelfNs() const;
};

namespace internal {
/// Per-thread phase accumulator. The owning thread is the only writer of
/// scope_ms; count/self_ns are relaxed atomics so live gauge export can
/// read them mid-run. Registered with the Profiler on first use and kept
/// for the process lifetime (threads are few and slots are small).
struct PhaseThreadStats {
  uint32_t lane = 0;
  std::atomic<uint64_t> count[kNumProfilePhases] = {};
  std::atomic<uint64_t> self_ns[kNumProfilePhases] = {};
  Histogram scope_ms[kNumProfilePhases];
};
}  // namespace internal

/// Process-wide wall-clock profiler: owns the per-thread phase slots and
/// the named contention sites. Disabled by default; the threaded server
/// enables it around the level of interest (enabling costs each probe
/// one relaxed load either way).
class Profiler {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled);

  /// Finds or creates the named contention site; the pointer stays valid
  /// for the profiler's lifetime (call sites cache it).
  ContentionSite* site(const std::string& name);

  /// This thread's phase slot, registering it on first use.
  internal::PhaseThreadStats* ThreadStats();

  /// Full snapshot including the per-thread scope histograms. Quiescent
  /// only: no ScopedPhaseTimer may be live (Histogram is not
  /// thread-safe) — the same end-of-run contract as TraceRecorder
  /// snapshots and Histogram::Merge.
  ProfileSnapshot Snapshot() const;

  /// Live export of the atomically-readable slices (phase counts and
  /// self-time totals, site counters) as gauges — safe concurrently with
  /// running probes; the in-server sampler republishes these every tick.
  void ExportLiveGauges(MetricRegistry* metrics) const;

  /// Quiescent: merges every thread's scope histograms into
  /// `profile.phase_ms.<phase>` registry histograms, so /metrics and the
  /// metrics JSON carry the p50–p999 phase quantiles.
  void ExportPhaseHistograms(MetricRegistry* metrics) const;

  /// Drops all recorded data (keeps registered threads and sites).
  void Reset();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<internal::PhaseThreadStats>> threads_;
  std::vector<std::unique_ptr<ContentionSite>> sites_;
};

/// The process-wide profiler all probes feed.
Profiler& GlobalProfiler();

#ifndef ESR_TRACE_DISABLED
namespace internal {
void OpenPhaseSlow(ProfilePhase phase);
void ClosePhaseSlow();
}  // namespace internal
#endif

/// RAII phase scope with self-time nesting (see ProfilePhase). Opening a
/// nested phase suspends the parent's self-time accumulation; closing
/// resumes it. Scopes are thread-local and must nest (RAII enforces it).
class ScopedPhaseTimer {
 public:
#ifndef ESR_TRACE_DISABLED
  explicit ScopedPhaseTimer(ProfilePhase phase) {
    if (GlobalProfilerEnabled()) {
      open_ = true;
      internal::OpenPhaseSlow(phase);
    }
  }
  ~ScopedPhaseTimer() {
    if (open_) internal::ClosePhaseSlow();
  }
#else
  explicit ScopedPhaseTimer(ProfilePhase) {}
  ~ScopedPhaseTimer() = default;
#endif

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
#ifndef ESR_TRACE_DISABLED
  bool open_ = false;
#endif
};

/// Drop-in SpinMutex wrapper (BasicLockable, so std::lock_guard works)
/// that doubles as a ContentionSite: uncontended locks cost one relaxed
/// load, a try_lock and a counter bump; contended locks read the
/// holder's TxnId at the first failed try_lock and charge the measured
/// wait — spin and park alike — to it. The protected section publishes
/// its identity with set_holder(txn) right after acquiring. With the
/// profiler disabled (or compiled out) this is a plain SpinMutex.
class ProfiledMutex {
 public:
  /// `site_name` must be a string literal (kept by pointer; the site is
  /// resolved lazily on first profiled lock).
  explicit ProfiledMutex(const char* site_name) : site_name_(site_name) {}

  ProfiledMutex(const ProfiledMutex&) = delete;
  ProfiledMutex& operator=(const ProfiledMutex&) = delete;

  void lock() {
#ifndef ESR_TRACE_DISABLED
    if (GlobalProfilerEnabled()) {
      LockProfiled();
      return;
    }
#endif
    mu_.lock();
  }

  void unlock() {
#ifndef ESR_TRACE_DISABLED
    if (GlobalProfilerEnabled()) {
      holder_.store(kInvalidTxnId, std::memory_order_relaxed);
    }
#endif
    mu_.unlock();
  }

  bool try_lock() { return mu_.try_lock(); }

  /// Publishes the transaction the critical section currently serves, so
  /// contended waiters can blame it. Call while holding the lock.
  void set_holder(TxnId txn) {
#ifndef ESR_TRACE_DISABLED
    if (GlobalProfilerEnabled()) {
      holder_.store(txn, std::memory_order_relaxed);
    }
#else
    (void)txn;
#endif
  }

 private:
#ifndef ESR_TRACE_DISABLED
  void LockProfiled();
#endif

  SpinMutex mu_;
  const char* site_name_;
  std::atomic<ContentionSite*> site_{nullptr};
  std::atomic<TxnId> holder_{kInvalidTxnId};
};

/// RAII timed wait against a contention site: measures the scope's
/// duration and charges it to `holder` on destruction. Inert when the
/// profiler is off or `site` is null. The threaded server wraps its
/// kWait retry backoff in one, blaming OpResult::blocker.
class ScopedSiteWait {
 public:
#ifndef ESR_TRACE_DISABLED
  ScopedSiteWait(ContentionSite* site, TxnId holder) {
    if (site != nullptr && GlobalProfilerEnabled()) {
      site_ = site;
      holder_ = holder;
      start_ns_ = ProfileNowNs();
    }
  }
  ~ScopedSiteWait() {
    if (site_ != nullptr) {
      site_->RecordWait(ProfileNowNs() - start_ns_, holder_);
    }
  }
#else
  ScopedSiteWait(ContentionSite*, TxnId) {}
  ~ScopedSiteWait() = default;
#endif

  ScopedSiteWait(const ScopedSiteWait&) = delete;
  ScopedSiteWait& operator=(const ScopedSiteWait&) = delete;

 private:
#ifndef ESR_TRACE_DISABLED
  ContentionSite* site_ = nullptr;
  TxnId holder_ = kInvalidTxnId;
  int64_t start_ns_ = 0;
#endif
};

/// Commit-latency totals the attribution is checked against (the
/// threaded server fills these from its client.txn_latency_ms
/// histogram). Phase self-times must sum to within a few percent of
/// total_ms — `esr profile --check-coverage` gates on it.
struct ProfileTxnTotals {
  uint64_t count = 0;
  double total_ms = 0.0;
};

/// Writes the snapshot as one JSON document:
///   {"profile": {"enabled": _, "txn": {...}, "phases": {...},
///                "threads": [...], "sites": [...]}}
/// consumed by `esr profile`.
void WriteProfileJson(const ProfileSnapshot& snapshot,
                      const ProfileTxnTotals& txn, bool enabled,
                      std::ostream& out);
Status WriteProfileJsonToFile(const ProfileSnapshot& snapshot,
                              const ProfileTxnTotals& txn, bool enabled,
                              const std::string& path);

}  // namespace esr

#endif  // ESR_OBS_PROFILE_H_
