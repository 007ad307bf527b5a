// Figure 7: Throughput vs Multiprogramming Level, one curve per epsilon
// level (zero = SR, low, medium, high). Expected shape: higher bounds give
// higher throughput; each curve thrashes (peaks and declines), and the
// thrashing point shifts to a higher MPL as the bounds increase.

#include "harness/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace {

using esr::EpsilonLevel;
using esr::bench::AveragedResult;
using esr::bench::BaseOptions;
using esr::bench::JobsFromArgs;
using esr::bench::JsonReport;
using esr::bench::PrintHeader;
using esr::bench::RunScale;
using esr::bench::Sweep;
using esr::bench::Table;

constexpr EpsilonLevel kLevels[] = {EpsilonLevel::kZero, EpsilonLevel::kLow,
                                    EpsilonLevel::kMedium,
                                    EpsilonLevel::kHigh};
constexpr const char* kNames[] = {"zero(SR)", "low", "medium", "high"};

}  // namespace

int main(int argc, char** argv) {
  esr::bench::TraceCapture trace_capture(argc, argv);
  const RunScale scale = RunScale::FromEnv();
  PrintHeader("Figure 7: Throughput vs MPL",
              "ESR >> SR at high bounds; thrashing at MPL~3 for low/zero "
              "bounds shifting to MPL~5 for high bounds",
              scale);

  Sweep sweep(scale, JobsFromArgs(argc, argv));
  sweep.set_series_export(esr::bench::SeriesPathFromArgs(argc, argv),
                          "fig07_throughput_vs_mpl");
  sweep.set_certify(esr::bench::CertifyFromArgs(argc, argv));
  sweep.set_health(esr::bench::HealthPathFromArgs(argc, argv));
  for (int mpl = 1; mpl <= 10; ++mpl) {
    for (int l = 0; l < 4; ++l) {
      sweep.Add(BaseOptions(kLevels[l], mpl, scale));
    }
  }
  sweep.Run();

  JsonReport report("fig07_throughput_vs_mpl", sweep.scale());
  Table table({"mpl", "zero(SR)", "low", "medium", "high"});
  double peak[4] = {0, 0, 0, 0};
  int peak_mpl[4] = {0, 0, 0, 0};
  double max_ci_rel = 0.0;
  size_t point = 0;
  for (int mpl = 1; mpl <= 10; ++mpl) {
    std::vector<std::string> row{std::to_string(mpl)};
    for (int l = 0; l < 4; ++l) {
      const AveragedResult& r = sweep.Result(point++);
      report.AddPoint(kNames[l], mpl, r);
      const double tput = r.throughput;
      max_ci_rel = std::max(max_ci_rel, r.ci90_rel);
      if (tput > peak[l]) {
        peak[l] = tput;
        peak_mpl[l] = mpl;
      }
      row.push_back(Table::NumCi(tput, r.ci90_rel));
    }
    table.AddRow(row);
  }
  table.Print();
  const esr::Status json_status =
      report.WriteToFile(JsonReport::PathFromArgs(argc, argv));
  if (!json_status.ok()) {
    std::fprintf(stderr, "%s\n", json_status.ToString().c_str());
    return 1;
  }
  std::printf(
      "\nDispersion: max per-cell 90%% CI half-width across seeds = "
      "±%.1f%% (paper budget: ±3%%; cells above it are flagged '!').\n",
      100.0 * max_ci_rel);

  std::printf("\nThrashing points (MPL at peak throughput, tps):\n");
  for (int l = 0; l < 4; ++l) {
    std::printf("  %-8s peak %.2f tps at MPL %d\n", kNames[l], peak[l],
                peak_mpl[l]);
  }
  return 0;
}
