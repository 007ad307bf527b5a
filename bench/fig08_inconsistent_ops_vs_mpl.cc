// Figure 8: Successful Inconsistent Operations vs Multiprogramming Level.
// No zero-epsilon curve: SR never executes inconsistent operations.
// Expected shape: counts increase with both the inconsistency bounds and
// the MPL.

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

constexpr EpsilonLevel kLevels[] = {EpsilonLevel::kLow,
                                    EpsilonLevel::kMedium,
                                    EpsilonLevel::kHigh};

}  // namespace

int main(int argc, char** argv) {
  esr::bench::TraceCapture trace_capture(argc, argv);
  const RunScale scale = RunScale::FromEnv();
  PrintHeader("Figure 8: Successful Inconsistent Operations vs MPL",
              "steady increase with each bound level and with MPL",
              scale);

  Sweep sweep(scale, JobsFromArgs(argc, argv));
  sweep.set_series_export(esr::bench::SeriesPathFromArgs(argc, argv),
                          "fig08_inconsistent_ops_vs_mpl");
  sweep.set_certify(esr::bench::CertifyFromArgs(argc, argv));
  sweep.set_health(esr::bench::HealthPathFromArgs(argc, argv));
  for (int mpl = 1; mpl <= 10; ++mpl) {
    for (EpsilonLevel level : kLevels) {
      sweep.Add(BaseOptions(level, mpl, scale));
    }
  }
  sweep.Run();

  JsonReport report("fig08_inconsistent_ops_vs_mpl", sweep.scale());
  Table table({"mpl", "low", "medium", "high"});
  size_t point = 0;
  for (int mpl = 1; mpl <= 10; ++mpl) {
    std::vector<std::string> row{std::to_string(mpl)};
    for (EpsilonLevel level : kLevels) {
      const AveragedResult& r = sweep.Result(point++);
      report.AddPoint(std::string(EpsilonLevelToString(level)), mpl, r);
      row.push_back(Table::Int(r.inconsistent_ops));
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
  return 0;
}
