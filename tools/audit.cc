// `esr audit`, the offline trace auditor: replays a Chrome trace captured
// with --trace (threaded_server, banking_hierarchy, or any bench figure
// binary) and
//
//   1. recertifies every hierarchical inconsistency bound from the
//      BoundCheck/ImportCharge stream — Sec. 5.3.1's invariant, proved
//      from the trace alone, flagging any interval during which an
//      admitted charge pushed a node past its declared limit;
//   2. reconstructs per-transaction conflict chains (which writer forced
//      which wait, and who blocked the most total time);
//   3. decomposes commit latency along the causal spans into RPC wait,
//      engine service, conflict wait, and client-side remainder.
//
// Usage:
//   esr audit <trace.json> [--json report.json] [--top N]
//             [--perturb N] [--seed S]
//   esr audit --demo-violation [--json report.json] [--perturb N]
//
// --demo-violation audits a built-in hand-crafted history in which an
// engine (wrongly) admits charges past a group bound, demonstrating —
// and letting CI assert — that a broken invariant is detected.
//
// The bounds verdict comes from the streaming certifier
// (obs/stream_audit.h) fed from the file, the same code that certifies a
// live run; the report ends with its watermark line.
//
// --perturb N hunts for schedule-sensitive violations: N seeded
// commit-order/timing perturbations of the captured schedule — each
// preserving per-client program order — are recertified; a violation
// under perturbation of an otherwise certified trace exits 2 and a
// minimal reproduction (the violating transaction's bound-relevant
// events) is reported. --seed S sets the base seed (default 1).
//
// Exit status: 0 when the trace (and every perturbed schedule) certifies,
// 2 when any bound violation is found, 1 on usage or I/O errors.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli.h"
#include "obs/audit.h"
#include "obs/stream_audit.h"
#include "obs/trace.h"
#include "obs/trace_reader.h"

namespace esr::cli {
namespace {

// A history in which the engine mis-enforces the banking example's
// hierarchy: a query ET declares TIL 100 with LIMIT 50 on group 5, and the
// (buggy) engine admits import charges of 30 then 40 through the full
// bottom-up walk. The second walk leaves group 5 at 70 — over its declared
// bound — which the replay must flag, naming the node and the interval
// from the offending admit to the transaction's end.
std::vector<esr::TraceEvent> DemoViolationHistory() {
  using esr::TraceEvent;
  constexpr esr::TxnId kQuery = 7;
  constexpr esr::SiteId kSite = 1;
  constexpr uint64_t kGroup = 5;

  std::vector<TraceEvent> events;
  auto at = [&events](int64_t ts, TraceEvent e) {
    e.ts_micros = ts;
    events.push_back(e);
  };

  at(1000, TraceEvent::BeginTxn(kQuery, esr::TxnType::kQuery, kSite));
  // First walk: group 5 reaches 30/50, transaction level 30/100 — fine.
  at(1010, TraceEvent::Op(esr::TraceEventType::kRead, kQuery, kSite, 42));
  at(1011, TraceEvent::BoundCheck(kQuery, kSite, /*level=*/1, kGroup,
                                  /*charged=*/30.0, /*limit=*/50.0,
                                  /*admitted=*/true));
  at(1012, TraceEvent::BoundCheck(kQuery, kSite, /*level=*/0, /*group=*/0,
                                  /*charged=*/30.0, /*limit=*/100.0,
                                  /*admitted=*/true));
  at(1013, TraceEvent::ImportCharge(kQuery, kSite, /*object=*/42, 30.0));
  // Second walk: the engine admits another 40 against group 5 even though
  // that leaves the node at 70 > 50. The root check is honest (70 <= 100),
  // so only the group-level replay can catch the bug.
  at(1020, TraceEvent::Op(esr::TraceEventType::kRead, kQuery, kSite, 43));
  at(1021, TraceEvent::BoundCheck(kQuery, kSite, /*level=*/1, kGroup,
                                  /*charged=*/40.0, /*limit=*/50.0,
                                  /*admitted=*/true));
  at(1022, TraceEvent::BoundCheck(kQuery, kSite, /*level=*/0, /*group=*/0,
                                  /*charged=*/40.0, /*limit=*/100.0,
                                  /*admitted=*/true));
  at(1023, TraceEvent::ImportCharge(kQuery, kSite, /*object=*/43, 40.0));
  at(1100, TraceEvent::CommitTxn(kQuery, kSite));
  return events;
}

}  // namespace

int Audit(const std::vector<std::string>& args) {
  std::string json_path;
  uint64_t top_n = 10;
  uint64_t perturb_n = 0;
  uint64_t base_seed = 1;
  bool demo = false;
  std::vector<std::string> inputs;
  if (!ParseFlags(args,
                  {{"--json", &json_path}, {"--top", &top_n},
                   {"--perturb", &perturb_n}, {"--seed", &base_seed},
                   {"--demo-violation", &demo}},
                  &inputs)) {
    return Usage();
  }
  // Exactly one input: a trace file, or the built-in demo history.
  if (inputs.size() != (demo ? 0u : 1u)) return Usage();
  const std::string trace_path = demo ? "" : inputs[0];

  std::vector<esr::TraceEvent> events;
  esr::TraceMetadata metadata;
  if (demo) {
    events = DemoViolationHistory();
    metadata.recorded = events.size();
  } else {
    const esr::Status s =
        esr::ReadChromeTraceFile(trace_path, &events, &metadata);
    if (!s.ok()) {
      std::fprintf(stderr, "esr audit: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  const esr::AuditReport report = esr::AuditTrace(events, metadata);
  esr::PrintAuditReport(report, std::cout, top_n);
  const double window_s = report.certification.window_s;

  // Perturbation hunt: recertify N seeded reorderings of the schedule.
  bool perturbed_violation = false;
  if (perturb_n > 0) {
    const esr::PerturbReport hunt =
        esr::HuntPerturbations(events, perturb_n, base_seed, window_s);
    std::printf(
        "perturbation hunt: %zu schedule(s), seeds %llu..%llu — "
        "certified: %zu, violating: %zu\n",
        hunt.schedules, static_cast<unsigned long long>(base_seed),
        static_cast<unsigned long long>(base_seed + perturb_n - 1),
        hunt.schedules - hunt.violating, hunt.violating);
    perturbed_violation = hunt.violating > 0;
    std::vector<esr::TraceEvent> minimal;
    if (!report.certified()) {
      minimal = esr::MinimizeViolatingSchedule(events, window_s);
    } else if (hunt.violating > 0) {
      std::printf(
          "  first violating seed %llu: %zu violation(s) on a certified "
          "base trace\n",
          static_cast<unsigned long long>(hunt.first_violating_seed),
          hunt.first_violations.size());
      minimal = hunt.minimal_schedule;
    }
    if (!minimal.empty()) {
      std::printf(
          "minimal reproduction: %zu event(s) (violating transaction's "
          "bound-relevant prefix, re-verified to still violate)\n",
          minimal.size());
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "esr audit: cannot open %s\n", json_path.c_str());
      return 1;
    }
    esr::WriteAuditJson(report, out, top_n);
    if (!out.good()) {
      std::fprintf(stderr, "esr audit: failed writing %s\n",
                   json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote audit JSON to %s\n", json_path.c_str());
  }

  return (report.certified() && !perturbed_violation) ? 0 : 2;
}

}  // namespace esr::cli
