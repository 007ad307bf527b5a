// `esr health`: offline health analysis over recorded telemetry.
//
// Replays a per-window series (captured with any figure binary's
// `--series`) through the obs/health detector set — the exact monitor
// the bench harness runs for `--health` and threaded_server runs live —
// and prints the alert journal. Because detectors see only the window
// stream, this replay reproduces byte-for-byte the alerts a live
// monitor would have raised over the same run.
//
// Usage:
//   esr health <series.csv> [--json]
//   esr health --journal <health.json> [--json]
//   esr health --demo [--json]
//
// Modes:
//   <series.csv>   analyze a recorded series (`esr series` CSV format);
//   --journal      reprint a previously written --health journal and
//                  exit by its content — lets CI and the
//                  threaded_server signal test validate a journal
//                  without re-running the workload;
//   --demo         analyze the built-in synthetic reproduction of the
//                  documented MPL 2/low abort livelock (one
//                  abort_livelock alert blaming windows 12..25).
//
// Exit codes: 0 healthy, 2 when any alert fires (including --demo,
// which always fires — CI pins that), 1 on usage or I/O errors.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cli.h"
#include "obs/health.h"
#include "obs/series.h"

namespace esr::cli {
namespace {

int EmitReport(const esr::HealthReport& report, bool json) {
  if (json) {
    esr::WriteHealthJson(report, std::cout);
    std::cout << "\n";
  } else {
    esr::WriteHealthText(report, std::cout);
  }
  return report.healthy() ? 0 : 2;
}

}  // namespace

int Health(const std::vector<std::string>& args) {
  std::string journal_path;
  bool demo = false;
  bool json = false;
  std::vector<std::string> inputs;
  if (!ParseFlags(args,
                  {{"--json", &json}, {"--demo", &demo},
                   {"--journal", &journal_path}},
                  &inputs)) {
    return Usage();
  }
  const size_t modes =
      inputs.size() + (journal_path.empty() ? 0 : 1) + (demo ? 1 : 0);
  if (modes != 1) return Usage();

  if (demo) {
    return EmitReport(esr::AnalyzeSeries(esr::BuildLivelockDemoSeries()),
                      json);
  }
  if (!journal_path.empty()) {
    esr::Result<esr::HealthReport> report =
        esr::ReadHealthJsonFile(journal_path);
    if (!report.ok()) {
      std::fprintf(stderr, "esr health: %s\n",
                   report.status().message().c_str());
      return 1;
    }
    return EmitReport(report.value(), json);
  }

  esr::Result<esr::RunSeries> series =
      esr::ReadSeriesCsvFile(inputs[0]);
  if (!series.ok()) {
    std::fprintf(stderr, "esr health: %s\n",
                 series.status().message().c_str());
    return 1;
  }
  return EmitReport(esr::AnalyzeSeries(series.value()), json);
}

}  // namespace esr::cli
