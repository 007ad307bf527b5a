// Figure 10: Total Number of Operations (reads + writes) executed vs
// Multiprogramming Level, including the operations of attempts that later
// aborted. With near-zero aborts (high bounds) this equals the useful
// work; anything above that is wasted effort that depresses throughput.

#include "harness/harness.h"

#include <cstdio>

namespace {

using esr::EpsilonLevel;
using esr::EpsilonLevelToString;
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

}  // namespace

int main(int argc, char** argv) {
  esr::bench::TraceCapture trace_capture(argc, argv);
  const RunScale scale = RunScale::FromEnv();
  PrintHeader("Figure 10: Number of Operations (R+W) vs MPL",
              "ops at high bounds ~= useful work; the excess at lower "
              "bounds measures wasted effort from aborted transactions",
              scale);

  Sweep sweep(scale, JobsFromArgs(argc, argv));
  sweep.set_series_export(esr::bench::SeriesPathFromArgs(argc, argv),
                          "fig10_operations_vs_mpl");
  sweep.set_certify(esr::bench::CertifyFromArgs(argc, argv));
  sweep.set_health(esr::bench::HealthPathFromArgs(argc, argv));
  for (int mpl = 1; mpl <= 10; ++mpl) {
    for (EpsilonLevel level : kLevels) {
      sweep.Add(BaseOptions(level, mpl, scale));
    }
  }
  sweep.Run();

  JsonReport report("fig10_operations_vs_mpl", sweep.scale());
  Table table(
      {"mpl", "zero(SR)", "low", "medium", "high", "waste(SR-vs-high)"});
  size_t point = 0;
  for (int mpl = 1; mpl <= 10; ++mpl) {
    std::vector<std::string> row{std::to_string(mpl)};
    double zero_ops = 0, high_ops = 0, zero_commit = 0, high_commit = 0;
    for (EpsilonLevel level : kLevels) {
      const AveragedResult& r = sweep.Result(point++);
      report.AddPoint(std::string(EpsilonLevelToString(level)), mpl, r);
      row.push_back(Table::Int(r.ops_executed));
      if (level == EpsilonLevel::kZero) {
        zero_ops = r.ops_executed;
        zero_commit = r.committed;
      }
      if (level == EpsilonLevel::kHigh) {
        high_ops = r.ops_executed;
        high_commit = r.committed;
      }
    }
    // Wasted ops per committed txn under SR relative to the high-epsilon
    // useful-work baseline.
    const double waste =
        (zero_commit > 0 && high_commit > 0)
            ? zero_ops / zero_commit - high_ops / high_commit
            : 0.0;
    row.push_back(Table::Num(waste, 1));
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "\nwaste(SR-vs-high): extra ops per committed txn under SR compared "
      "with the high-epsilon useful-work baseline.\n");
  const esr::Status json_status =
      report.WriteToFile(JsonReport::PathFromArgs(argc, argv));
  if (!json_status.ok()) {
    std::fprintf(stderr, "%s\n", json_status.ToString().c_str());
    return 1;
  }
  return 0;
}
