#include "obs/profile.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>

#include "common/logging.h"

namespace esr {

const char* ProfilePhaseToString(ProfilePhase phase) {
  switch (phase) {
    case ProfilePhase::kLockWait: return "lock_wait";
    case ProfilePhase::kRpc: return "rpc";
    case ProfilePhase::kValidate: return "validate";
    case ProfilePhase::kBoundWalk: return "bound_walk";
    case ProfilePhase::kApply: return "apply";
    case ProfilePhase::kCommit: return "commit";
  }
  return "unknown";
}

// -- ContentionSite ----------------------------------------------------------

namespace {

// log2 bucket index for a wait of `ns` nanoseconds (clamped).
size_t WaitBucketIndex(int64_t ns) {
  if (ns < 1) return 0;
  const size_t idx = 63 - static_cast<size_t>(__builtin_clzll(
                              static_cast<unsigned long long>(ns)));
  return std::min(idx, ContentionSite::kWaitBuckets - 1);
}

}  // namespace

void ContentionSite::RecordWait(int64_t wait_ns, TxnId holder) {
  if (wait_ns < 0) wait_ns = 0;
  contended_.fetch_add(1, std::memory_order_relaxed);
  total_wait_ns_.fetch_add(static_cast<uint64_t>(wait_ns),
                           std::memory_order_relaxed);
  wait_buckets_[WaitBucketIndex(wait_ns)].fetch_add(1,
                                                    std::memory_order_relaxed);
  uint64_t prev = max_wait_ns_.load(std::memory_order_relaxed);
  while (static_cast<uint64_t>(wait_ns) > prev &&
         !max_wait_ns_.compare_exchange_weak(prev,
                                             static_cast<uint64_t>(wait_ns),
                                             std::memory_order_relaxed)) {
  }
  if (holder == kInvalidTxnId) return;
  std::lock_guard<std::mutex> lock(blockers_mu_);
  BlockerEntry& entry = blockers_[holder];
  entry.txn = holder;
  entry.waits += 1;
  entry.total_wait_ns += static_cast<uint64_t>(wait_ns);
}

void ContentionSite::RecordConflict(TxnId holder) {
  conflicts_.fetch_add(1, std::memory_order_relaxed);
  if (holder == kInvalidTxnId) return;
  std::lock_guard<std::mutex> lock(blockers_mu_);
  BlockerEntry& entry = blockers_[holder];
  entry.txn = holder;
  entry.waits += 1;
}

ContentionSite::Snapshot ContentionSite::TakeSnapshot() const {
  Snapshot snap;
  snap.name = name_;
  snap.acquisitions = acquisitions_.load(std::memory_order_relaxed);
  snap.contended = contended_.load(std::memory_order_relaxed);
  snap.conflicts = conflicts_.load(std::memory_order_relaxed);
  snap.total_wait_ns = total_wait_ns_.load(std::memory_order_relaxed);
  snap.max_wait_ns = max_wait_ns_.load(std::memory_order_relaxed);
  snap.wait_buckets.resize(kWaitBuckets);
  for (size_t i = 0; i < kWaitBuckets; ++i) {
    snap.wait_buckets[i] = wait_buckets_[i].load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(blockers_mu_);
    snap.blockers.reserve(blockers_.size());
    for (const auto& [txn, entry] : blockers_) {
      snap.blockers.push_back(entry);
    }
  }
  std::sort(snap.blockers.begin(), snap.blockers.end(),
            [](const BlockerEntry& a, const BlockerEntry& b) {
              if (a.total_wait_ns != b.total_wait_ns) {
                return a.total_wait_ns > b.total_wait_ns;
              }
              if (a.waits != b.waits) return a.waits > b.waits;
              return a.txn < b.txn;
            });
  return snap;
}

void ContentionSite::Reset() {
  acquisitions_.store(0, std::memory_order_relaxed);
  contended_.store(0, std::memory_order_relaxed);
  conflicts_.store(0, std::memory_order_relaxed);
  total_wait_ns_.store(0, std::memory_order_relaxed);
  max_wait_ns_.store(0, std::memory_order_relaxed);
  for (auto& bucket : wait_buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(blockers_mu_);
  blockers_.clear();
}

double ContentionSite::Snapshot::WaitPercentileUs(double p) const {
  uint64_t total = 0;
  for (uint64_t c : wait_buckets) total += c;
  if (total == 0) return 0.0;
  p = std::min(std::max(p, 0.0), 1.0);
  // Rank of the target sample (1-based ceiling, like Histogram).
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(p * total)));
  uint64_t seen = 0;
  for (size_t i = 0; i < wait_buckets.size(); ++i) {
    seen += wait_buckets[i];
    if (seen >= rank) {
      // Geometric midpoint of [2^i, 2^(i+1)) ns, reported in µs.
      const double lo = i == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(i));
      return lo * std::sqrt(2.0) / 1000.0;
    }
  }
  return static_cast<double>(max_wait_ns) / 1000.0;
}

// -- Profiler ----------------------------------------------------------------

uint64_t ProfileSnapshot::TotalSelfNs() const {
  uint64_t total = 0;
  for (const PhaseSnapshot& phase : phases) total += phase.self_ns;
  return total;
}

void Profiler::set_enabled(bool enabled) {
  if (this == &GlobalProfiler()) GlobalTrace().set_profiling(enabled);
}

ContentionSite* Profiler::site(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& site : sites_) {
    if (site->name() == name) return site.get();
  }
  sites_.push_back(std::make_unique<ContentionSite>(name));
  return sites_.back().get();
}

internal::PhaseThreadStats* Profiler::RegisterThread() {
  auto slot = std::make_unique<internal::PhaseThreadStats>();
  slot->lane = ThreadLaneId();
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(std::move(slot));
  return threads_.back().get();
}

ProfileSnapshot Profiler::Snapshot() const {
  ProfileSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.threads.reserve(threads_.size());
  for (const auto& thread : threads_) {
    ThreadProfile profile;
    profile.lane = thread->lane;
    bool any = false;
    for (size_t p = 0; p < kNumProfilePhases; ++p) {
      PhaseSnapshot& phase = profile.phases[p];
      phase.count = thread->count[p].load(std::memory_order_relaxed);
      phase.self_ns = thread->self_ns[p].load(std::memory_order_relaxed);
      phase.scope_ms = thread->scope_ms[p];
      any = any || phase.count > 0;
      snap.phases[p].count += phase.count;
      snap.phases[p].self_ns += phase.self_ns;
      snap.phases[p].scope_ms.Merge(phase.scope_ms);
    }
    if (any) snap.threads.push_back(std::move(profile));
  }
  std::sort(snap.threads.begin(), snap.threads.end(),
            [](const ThreadProfile& a, const ThreadProfile& b) {
              return a.lane < b.lane;
            });
  for (const auto& site : sites_) {
    ContentionSite::Snapshot s = site->TakeSnapshot();
    if (s.acquisitions > 0 || s.contended > 0 || s.conflicts > 0) {
      snap.sites.push_back(std::move(s));
    }
  }
  std::sort(snap.sites.begin(), snap.sites.end(),
            [](const ContentionSite::Snapshot& a,
               const ContentionSite::Snapshot& b) {
              if (a.total_wait_ns != b.total_wait_ns) {
                return a.total_wait_ns > b.total_wait_ns;
              }
              return a.name < b.name;
            });
  return snap;
}

void Profiler::ExportLiveGauges(MetricRegistry* metrics) const {
  uint64_t counts[kNumProfilePhases] = {};
  uint64_t self_ns[kNumProfilePhases] = {};
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& thread : threads_) {
      for (size_t p = 0; p < kNumProfilePhases; ++p) {
        counts[p] += thread->count[p].load(std::memory_order_relaxed);
        self_ns[p] += thread->self_ns[p].load(std::memory_order_relaxed);
      }
    }
    for (const auto& site : sites_) {
      ContentionSite::Snapshot s = site->TakeSnapshot();
      if (s.acquisitions == 0 && s.contended == 0 && s.conflicts == 0) {
        continue;
      }
      const std::string prefix = "profile.site." + s.name;
      metrics->gauge(prefix + ".acquisitions")
          .Set(static_cast<double>(s.acquisitions));
      metrics->gauge(prefix + ".contended")
          .Set(static_cast<double>(s.contended));
      metrics->gauge(prefix + ".conflicts")
          .Set(static_cast<double>(s.conflicts));
      metrics->gauge(prefix + ".wait_ms")
          .Set(static_cast<double>(s.total_wait_ns) / 1e6);
    }
  }
  for (size_t p = 0; p < kNumProfilePhases; ++p) {
    const char* name = ProfilePhaseToString(static_cast<ProfilePhase>(p));
    metrics->gauge(std::string("profile.phase_count.") + name)
        .Set(static_cast<double>(counts[p]));
    metrics->gauge(std::string("profile.phase_self_ms.") + name)
        .Set(static_cast<double>(self_ns[p]) / 1e6);
  }
}

void Profiler::ExportPhaseHistograms(MetricRegistry* metrics) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t p = 0; p < kNumProfilePhases; ++p) {
    const char* name = ProfilePhaseToString(static_cast<ProfilePhase>(p));
    Histogram merged;
    for (const auto& thread : threads_) {
      merged.Merge(thread->scope_ms[p]);
    }
    if (merged.count() == 0) continue;
    Histogram& out = metrics->histogram(std::string("profile.phase_ms.") +
                                        name);
    out.Merge(merged);
  }
}

void Profiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& thread : threads_) {
    for (size_t p = 0; p < kNumProfilePhases; ++p) {
      thread->count[p].store(0, std::memory_order_relaxed);
      thread->self_ns[p].store(0, std::memory_order_relaxed);
      thread->scope_ms[p].Reset();
    }
  }
  for (const auto& site : sites_) {
    site->Reset();
  }
}

Profiler& GlobalProfiler() {
  // Leaked like GlobalTrace(): probes on detached threads may fire during
  // static destruction.
  static Profiler* profiler = new Profiler();
  return *profiler;
}

// -- The probe stack ---------------------------------------------------------

namespace {

constexpr uint8_t kNoPhase = kNumProfilePhases;

// One frame per open Probe or ScopedSpanParent on this thread. `span` and
// `phase` are the innermost open ones at this depth, inherited when the
// frame has none of its own.
struct ProbeFrame {
  uint64_t span;
  int64_t phase_start_ns;
  uint8_t phase;  // kNoPhase when none is open
  bool owns_phase;
};

// The innermost open phase owns the time since `seg_start_ns`; opening or
// closing a phase settles that segment into it (the self-time rule).
struct ProbeStack {
  ProbeFrame frames[kMaxProbeDepth];
  int depth;
  int64_t seg_start_ns;
  internal::PhaseThreadStats* stats;
};

thread_local ProbeStack t_probe_stack;

void Settle(ProbeStack& stack, uint8_t phase, int64_t now) {
  stack.stats->self_ns[phase].fetch_add(
      static_cast<uint64_t>(now - stack.seg_start_ns),
      std::memory_order_relaxed);
  stack.seg_start_ns = now;
}

// Pushes a frame for `span` (0: the enclosing one) in the enclosing phase.
ProbeFrame& PushFrame(uint64_t span) {
  ProbeStack& stack = t_probe_stack;
  ESR_CHECK(stack.depth < kMaxProbeDepth)
      << "probe stack overflow: more than " << kMaxProbeDepth
      << " nested probes on one thread";
  ProbeFrame& frame = stack.frames[stack.depth];
  const ProbeFrame* outer =
      stack.depth > 0 ? &stack.frames[stack.depth - 1] : nullptr;
  frame.span = span != 0 ? span : (outer != nullptr ? outer->span : 0);
  frame.phase = outer != nullptr ? outer->phase : kNoPhase;
  frame.owns_phase = false;
  ++stack.depth;
  return frame;
}

void PopFrame() {
  ProbeStack& stack = t_probe_stack;
  ESR_CHECK(stack.depth > 0) << "probe stack underflow";
  const ProbeFrame& frame = stack.frames[--stack.depth];
  if (!frame.owns_phase) return;
  const int64_t now = ProfileNowNs();
  Settle(stack, frame.phase, now);
  stack.stats->count[frame.phase].fetch_add(1, std::memory_order_relaxed);
  stack.stats->scope_ms[frame.phase].Record(
      static_cast<double>(now - frame.phase_start_ns) / 1e6);
}

}  // namespace

uint64_t CurrentSpan() {
  const ProbeStack& stack = t_probe_stack;
  return stack.depth > 0 ? stack.frames[stack.depth - 1].span : 0;
}

void ScopedSpanParent::Push(uint64_t span) { PushFrame(span); }

void ScopedSpanParent::Pop() { PopFrame(); }

#ifndef ESR_TRACE_DISABLED

void Probe::OpenPhase(ProfilePhase phase) {
  ProbeStack& stack = t_probe_stack;
  if (stack.stats == nullptr) stack.stats = GlobalProfiler().RegisterThread();
  ProbeFrame& frame = PushFrame(0);
  const int64_t now = ProfileNowNs();
  if (frame.phase != kNoPhase) Settle(stack, frame.phase, now);
  stack.seg_start_ns = now;
  frame.phase = static_cast<uint8_t>(phase);
  frame.owns_phase = true;
  frame.phase_start_ns = now;
}

void Probe::OpenSpanSlow(SpanKind kind, TxnId txn, SiteId site,
                         uint64_t target, uint64_t fallback_parent) {
  TraceRecorder& trace = GlobalTrace();
  const uint64_t parent = CurrentSpan();
  kind_ = kind;
  txn_ = txn;
  site_ = site;
  span_ = trace.NextSpanId();
  trace.Record(TraceEvent::SpanBeginEvent(
      kind, span_, parent != 0 ? parent : fallback_parent, txn, site, target));
  if ((gate_ & internal::kTraceGateProfile) != 0) {
    t_probe_stack.frames[t_probe_stack.depth - 1].span = span_;  // own frame
  } else {
    PushFrame(span_);
  }
}

void Probe::Close() {
  if (span_ != 0) {
    GlobalTrace().Record(TraceEvent::SpanEndEvent(kind_, span_, txn_, site_));
  }
  PopFrame();
}

// -- ProfiledMutex -----------------------------------------------------------

void ProfiledMutex::LockProfiled() {
  ContentionSite* site = site_.load(std::memory_order_acquire);
  if (site == nullptr) {
    site = GlobalProfiler().site(site_name_);
    site_.store(site, std::memory_order_release);
  }
  site->RecordAcquisition();
  if (mu_.try_lock()) return;
  // Contended: read who holds the latch at the failed try_lock, then
  // time the wait from there, so a wait the spin absorbs still counts.
  // The holder may change mid-wait; blaming the holder at wait start
  // matches what a sampling profiler would observe.
  const TxnId holder = holder_.load(std::memory_order_relaxed);
  const int64_t start = ProfileNowNs();
  mu_.LockContended();
  site->RecordWait(ProfileNowNs() - start, holder);
}
#endif  // !ESR_TRACE_DISABLED

// -- JSON export -------------------------------------------------------------

namespace {

void WritePhaseObject(const PhaseSnapshot& phase, double txn_total_ms,
                      std::ostream& out) {
  const double self_ms = static_cast<double>(phase.self_ns) / 1e6;
  const PercentileSummary pct = phase.scope_ms.Percentiles();
  out << "{\"count\": " << phase.count << ", \"self_ms\": " << self_ms
      << ", \"frac_of_txn\": "
      << (txn_total_ms > 0 ? self_ms / txn_total_ms : 0.0)
      << ", \"mean_ms\": " << phase.scope_ms.mean()
      << ", \"max_ms\": " << phase.scope_ms.max()
      << ", \"p50_ms\": " << pct.p50 << ", \"p90_ms\": " << pct.p90
      << ", \"p99_ms\": " << pct.p99 << ", \"p999_ms\": " << pct.p999 << "}";
}

}  // namespace

void WriteProfileJson(const ProfileSnapshot& snapshot,
                      const ProfileTxnTotals& txn, bool enabled,
                      std::ostream& out) {
  const auto flags = out.flags();
  const auto precision = out.precision();
  out << std::setprecision(12);
  out << "{\n  \"profile\": {\n";
  out << "    \"enabled\": " << (enabled ? "true" : "false") << ",\n";
  out << "    \"txn\": {\"count\": " << txn.count
      << ", \"total_ms\": " << txn.total_ms << "},\n";
  out << "    \"coverage_ms\": "
      << static_cast<double>(snapshot.TotalSelfNs()) / 1e6 << ",\n";
  out << "    \"phases\": {";
  bool first = true;
  for (size_t p = 0; p < kNumProfilePhases; ++p) {
    if (!first) out << ",";
    first = false;
    out << "\n      \""
        << ProfilePhaseToString(static_cast<ProfilePhase>(p)) << "\": ";
    WritePhaseObject(snapshot.phases[p], txn.total_ms, out);
  }
  out << "\n    },\n";
  out << "    \"threads\": [";
  first = true;
  for (const ThreadProfile& thread : snapshot.threads) {
    if (!first) out << ",";
    first = false;
    out << "\n      {\"lane\": " << thread.lane << ", \"phases\": {";
    bool first_phase = true;
    for (size_t p = 0; p < kNumProfilePhases; ++p) {
      const PhaseSnapshot& phase = thread.phases[p];
      if (phase.count == 0) continue;
      if (!first_phase) out << ", ";
      first_phase = false;
      out << "\"" << ProfilePhaseToString(static_cast<ProfilePhase>(p))
          << "\": {\"count\": " << phase.count << ", \"self_ms\": "
          << static_cast<double>(phase.self_ns) / 1e6 << "}";
    }
    out << "}}";
  }
  out << "\n    ],\n";
  out << "    \"sites\": [";
  first = true;
  for (const ContentionSite::Snapshot& site : snapshot.sites) {
    if (!first) out << ",";
    first = false;
    out << "\n      {\"name\": \"" << site.name
        << "\", \"acquisitions\": " << site.acquisitions
        << ", \"contended\": " << site.contended
        << ", \"conflicts\": " << site.conflicts << ", \"total_wait_ms\": "
        << static_cast<double>(site.total_wait_ns) / 1e6
        << ", \"max_wait_ms\": "
        << static_cast<double>(site.max_wait_ns) / 1e6
        << ", \"p50_wait_us\": " << site.WaitPercentileUs(0.5)
        << ", \"p99_wait_us\": " << site.WaitPercentileUs(0.99)
        << ", \"blockers\": [";
    bool first_blocker = true;
    for (const ContentionSite::BlockerEntry& blocker : site.blockers) {
      if (!first_blocker) out << ", ";
      first_blocker = false;
      out << "{\"txn\": " << blocker.txn << ", \"waits\": " << blocker.waits
          << ", \"total_wait_ms\": "
          << static_cast<double>(blocker.total_wait_ns) / 1e6 << "}";
    }
    out << "]}";
  }
  out << "\n    ]\n  }\n}\n";
  out.flags(flags);
  out.precision(precision);
}

Status WriteProfileJsonToFile(const ProfileSnapshot& snapshot,
                              const ProfileTxnTotals& txn, bool enabled,
                              const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open profile output file: " + path);
  }
  WriteProfileJson(snapshot, txn, enabled, out);
  out.flush();
  if (!out.good()) {
    return Status::Internal("failed writing profile to: " + path);
  }
  return Status::OK();
}

}  // namespace esr
