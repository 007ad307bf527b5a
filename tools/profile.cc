// `esr profile`: renders a threaded_server wall-clock profile capture
// (obs/profile.h JSON) as human-readable attribution tables, flamegraph
// folded stacks, and per-thread Chrome trace lanes.
//
// Usage:
//   esr profile <profile.json> [--trace trace.json] [--lanes lanes.json]
//               [--folded out.folded] [--check-coverage PCT]
//   esr profile --demo
//
// Prints the per-phase cost attribution table (self-time, % of measured
// commit latency, p50-p999 scope percentiles), the contention-site table,
// and the blocker table ranked by total wait across all sites.
//
// --folded writes folded stacks (`threaded_server;thread<N>;<phase>
// <self_us>`, plus `threaded_server;site_wait;<site> <wait_us>` frames
// for the named contention sites — shard latches in particular)
// consumable by flamegraph.pl / inferno-flamegraph.
// --lanes re-exports the --trace capture with one Perfetto track per
// client thread (tid = thread lane) instead of per transaction.
// --check-coverage PCT exits 2 when the phase self-time sum deviates from
// the measured commit-latency total by more than PCT percent — the
// attribution completeness gate CI runs at MPL 16.
// --demo runs the whole pipeline on a deterministic in-process profile
// (no input files) for tests.
//
// Exit codes: 0 success, 1 usage/input errors, 2 coverage gate failure.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "obs/json_value.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "obs/trace_reader.h"

namespace esr::cli {
namespace {

struct BlockerRow {
  uint64_t txn = 0;
  uint64_t waits = 0;
  double total_wait_ms = 0.0;
};

/// `v`'s member `key`, or a null value when it is absent: a field the
/// capture left out reads as 0 / empty, and an absent array as no rows.
const esr::JsonValue& Member(const esr::JsonValue& v, const std::string& key) {
  static const esr::JsonValue kAbsent;
  const esr::JsonValue* member = v.Find(key);
  return member != nullptr ? *member : kAbsent;
}

unsigned long long Count(const esr::JsonValue& v, const std::string& key) {
  return static_cast<uint64_t>(v.NumberOr(key, 0.0));
}

// Canonical phase print order (the JSON object is alphabetized).
const char* const kPhaseOrder[] = {"lock_wait", "rpc",   "validate",
                                   "bound_walk", "apply", "commit"};

void PrintAttribution(const esr::JsonValue& profile) {
  const esr::JsonValue& txn = Member(profile, "txn");
  const double txn_total_ms = txn.NumberOr("total_ms", 0.0);
  std::printf("profile: %llu txns, %.2f ms total commit latency%s\n",
              Count(txn, "count"), txn_total_ms,
              Member(profile, "enabled").bool_value
                  ? ""
                  : " (profiler was DISABLED)");
  std::printf("\nphase attribution (self-time, %zu thread(s)):\n",
              Member(profile, "threads").array.size());
  std::printf("  %-10s %10s %12s %9s %9s %9s %9s %9s\n", "phase", "samples",
              "self(ms)", "% of txn", "p50(ms)", "p90(ms)", "p99(ms)",
              "p999(ms)");
  const esr::JsonValue& phases = Member(profile, "phases");
  for (const char* name : kPhaseOrder) {
    const esr::JsonValue* row = phases.Find(name);
    if (row == nullptr) continue;
    std::printf("  %-10s %10llu %12.2f %8.1f%% %9.3f %9.3f %9.3f %9.3f\n",
                name, Count(*row, "count"), row->NumberOr("self_ms", 0.0),
                100.0 * row->NumberOr("frac_of_txn", 0.0),
                row->NumberOr("p50_ms", 0.0), row->NumberOr("p90_ms", 0.0),
                row->NumberOr("p99_ms", 0.0), row->NumberOr("p999_ms", 0.0));
  }
  const double coverage_ms = profile.NumberOr("coverage_ms", 0.0);
  const double coverage_frac =
      txn_total_ms > 0 ? coverage_ms / txn_total_ms : 0.0;
  std::printf(
      "\ncoverage: phase self-times sum to %.2f ms = %.1f%% of measured "
      "commit latency\n",
      coverage_ms, 100.0 * coverage_frac);
}

void PrintSites(const esr::JsonValue& profile) {
  const std::vector<esr::JsonValue>& sites = Member(profile, "sites").array;
  if (sites.empty()) {
    std::printf("\ncontention sites: none recorded\n");
    return;
  }
  std::printf("\ncontention sites (ranked by total wait):\n");
  std::printf("  %-22s %12s %10s %10s %10s %9s %9s\n", "site", "acquired",
              "contended", "conflicts", "wait(ms)", "p50(us)", "p99(us)");
  for (const esr::JsonValue& site : sites) {
    std::printf("  %-22s %12llu %10llu %10llu %10.2f %9.1f %9.1f\n",
                Member(site, "name").string.c_str(),
                Count(site, "acquisitions"), Count(site, "contended"),
                Count(site, "conflicts"), site.NumberOr("total_wait_ms", 0.0),
                site.NumberOr("p50_wait_us", 0.0),
                site.NumberOr("p99_wait_us", 0.0));
  }
  // Blocked-by attribution, merged across sites and ranked by the total
  // wall-clock wait each holder inflicted.
  std::map<uint64_t, BlockerRow> merged;
  for (const esr::JsonValue& site : sites) {
    for (const esr::JsonValue& b : Member(site, "blockers").array) {
      BlockerRow& entry = merged[Count(b, "txn")];
      entry.txn = Count(b, "txn");
      entry.waits += Count(b, "waits");
      entry.total_wait_ms += b.NumberOr("total_wait_ms", 0.0);
    }
  }
  std::vector<BlockerRow> blockers;
  for (const auto& [txn, row] : merged) blockers.push_back(row);
  std::sort(blockers.begin(), blockers.end(),
            [](const BlockerRow& a, const BlockerRow& b) {
              if (a.total_wait_ms != b.total_wait_ms) {
                return a.total_wait_ms > b.total_wait_ms;
              }
              if (a.waits != b.waits) return a.waits > b.waits;
              return a.txn < b.txn;
            });
  constexpr size_t kTopBlockers = 10;
  std::printf("\nblockers (by total wait inflicted, top %zu of %zu):\n",
              std::min(kTopBlockers, blockers.size()), blockers.size());
  std::printf("  %-12s %10s %12s\n", "txn", "waits", "wait(ms)");
  for (size_t i = 0; i < blockers.size() && i < kTopBlockers; ++i) {
    std::printf("  %-12llu %10llu %12.2f\n",
                static_cast<unsigned long long>(blockers[i].txn),
                static_cast<unsigned long long>(blockers[i].waits),
                blockers[i].total_wait_ms);
  }
}

bool WriteFolded(const esr::JsonValue& profile, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open folded output: %s\n", path.c_str());
    return false;
  }
  // One folded stack per (thread, phase); weights are integer self-time
  // microseconds, the format flamegraph.pl / inferno expect.
  for (const esr::JsonValue& thread : Member(profile, "threads").array) {
    const auto lane = static_cast<uint32_t>(thread.NumberOr("lane", 0.0));
    const esr::JsonValue& phases = Member(thread, "phases");
    for (const char* name : kPhaseOrder) {
      const esr::JsonValue* phase = phases.Find(name);
      if (phase == nullptr) continue;
      const long long self_us =
          std::llround(phase->NumberOr("self_ms", 0.0) * 1000.0);
      if (self_us <= 0) continue;
      out << "threaded_server;thread" << lane << ";" << name << " "
          << self_us << "\n";
    }
  }
  // Contention sites as a parallel frame family: the measured wait on
  // each named latch (engine.shard<i>.latch and friends) so the
  // flamegraph shows which shard's latch the lock-wait time sits on —
  // per-site, which the per-thread phase rows can't resolve.
  for (const esr::JsonValue& site : Member(profile, "sites").array) {
    const long long wait_us =
        std::llround(site.NumberOr("total_wait_ms", 0.0) * 1000.0);
    if (wait_us <= 0) continue;
    out << "threaded_server;site_wait;" << Member(site, "name").string << " "
        << wait_us << "\n";
  }
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "failed writing folded stacks to %s\n",
                 path.c_str());
    return false;
  }
  std::printf("\nwrote folded stacks to %s\n", path.c_str());
  return true;
}

bool WriteLanes(const std::string& trace_path, const std::string& out_path) {
  std::vector<esr::TraceEvent> events;
  esr::TraceMetadata metadata;
  const esr::Status s =
      esr::ReadChromeTraceFile(trace_path, &events, &metadata);
  if (!s.ok()) {
    std::fprintf(stderr, "cannot read trace: %s\n", s.ToString().c_str());
    return false;
  }
  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open lanes output: %s\n", out_path.c_str());
    return false;
  }
  esr::WriteChromeTraceEvents(events, out, metadata.recorded,
                              metadata.dropped, metadata.capacity,
                              /*thread_lanes=*/true);
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "failed writing lanes to %s\n", out_path.c_str());
    return false;
  }
  std::printf("\nwrote %zu events as per-thread lanes to %s\n",
              events.size(), out_path.c_str());
  return true;
}

// Deterministic synthetic profile exercising writer -> parser -> printer
// in every build (probe-independent, so it passes under
// ESR_DISABLE_TRACING too).
std::string DemoProfileJson() {
  esr::ProfileSnapshot snap;
  const uint64_t ms = 1000000;  // ns per ms
  snap.threads.resize(2);
  for (uint32_t i = 0; i < 2; ++i) {
    esr::ThreadProfile& t = snap.threads[i];
    t.lane = i + 1;
    auto fill = [&](esr::ProfilePhase phase, uint64_t count,
                    uint64_t self_ns, double scope_ms) {
      esr::PhaseSnapshot& p =
          t.phases[static_cast<size_t>(phase)];
      p.count = count;
      p.self_ns = self_ns;
      for (uint64_t s = 0; s < count; ++s) p.scope_ms.Record(scope_ms);
    };
    fill(esr::ProfilePhase::kLockWait, 40, 30 * ms, 0.75);
    fill(esr::ProfilePhase::kRpc, 200, 44 * ms, 0.22);
    fill(esr::ProfilePhase::kValidate, 240, 5 * ms, 0.02);
    fill(esr::ProfilePhase::kBoundWalk, 80, 1 * ms, 0.012);
    fill(esr::ProfilePhase::kApply, 60, 500000, 0.008);
    fill(esr::ProfilePhase::kCommit, 20, 800000, 0.04);
    for (size_t p = 0; p < esr::kNumProfilePhases; ++p) {
      snap.phases[p].count += t.phases[p].count;
      snap.phases[p].self_ns += t.phases[p].self_ns;
      snap.phases[p].scope_ms.Merge(t.phases[p].scope_ms);
    }
  }
  esr::ContentionSite site("demo.engine_mu");
  for (int i = 0; i < 500; ++i) site.RecordAcquisition();
  site.RecordWait(2 * ms, 7);
  site.RecordWait(5 * ms, 7);
  site.RecordWait(1 * ms, 9);
  site.RecordConflict(9);
  snap.sites.push_back(site.TakeSnapshot());
  esr::ProfileTxnTotals txn;
  txn.count = 40;
  txn.total_ms = 165.0;
  std::ostringstream out;
  esr::WriteProfileJson(snap, txn, /*enabled=*/true, out);
  return out.str();
}

}  // namespace

int Profile(const std::vector<std::string>& args) {
  std::string trace_path;
  std::string lanes_path;
  std::string folded_path;
  double check_coverage_pct = -1.0;
  bool demo = false;
  std::vector<std::string> inputs;
  if (!ParseFlags(args,
                  {{"--demo", &demo}, {"--trace", &trace_path},
                   {"--lanes", &lanes_path}, {"--folded", &folded_path},
                   {"--check-coverage", &check_coverage_pct}},
                  &inputs)) {
    return Usage();
  }
  if (inputs.size() != (demo ? 0u : 1u)) return Usage();
  if (!lanes_path.empty() && trace_path.empty()) {
    std::fprintf(stderr, "--lanes requires --trace <capture>\n");
    return Usage();
  }

  std::string json;
  if (demo) {
    json = DemoProfileJson();
  } else {
    std::ifstream in(inputs[0]);
    if (!in.is_open()) {
      std::fprintf(stderr, "cannot open profile: %s\n", inputs[0].c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    json = buffer.str();
  }

  esr::JsonValue root;
  std::string error;
  const bool parsed = esr::ParseJson(json, &root, &error);
  const esr::JsonValue& profile = Member(root, "profile");
  if (!parsed || !Member(profile, "phases").is_object()) {
    std::fprintf(stderr, "malformed profile JSON: %s\n",
                 parsed ? "no \"profile\" object with \"phases\""
                        : error.c_str());
    return 1;
  }

  PrintAttribution(profile);
  PrintSites(profile);

  if (!folded_path.empty() && !WriteFolded(profile, folded_path)) return 1;
  if (!lanes_path.empty() && !WriteLanes(trace_path, lanes_path)) return 1;

  if (check_coverage_pct >= 0.0) {
    const double txn_total_ms =
        Member(profile, "txn").NumberOr("total_ms", 0.0);
    if (txn_total_ms <= 0.0) {
      std::fprintf(stderr,
                   "coverage check: no measured commit latency in capture\n");
      return 2;
    }
    const double deviation =
        std::fabs(profile.NumberOr("coverage_ms", 0.0) / txn_total_ms - 1.0) *
        100.0;
    if (deviation > check_coverage_pct) {
      std::printf(
          "coverage check: FAIL — attribution deviates %.2f%% from "
          "measured latency (budget %.2f%%)\n",
          deviation, check_coverage_pct);
      return 2;
    }
    std::printf(
        "coverage check: PASS — attribution within %.2f%% of measured "
        "latency (budget %.2f%%)\n",
        deviation, check_coverage_pct);
  }
  return 0;
}

}  // namespace esr::cli
