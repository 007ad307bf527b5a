// Figure 9: Number of Aborts (retries) vs Multiprogramming Level. Every
// abort is resubmitted by its client, so aborts == retries. Expected
// shape: almost zero at high bounds, shooting up at lower bounds, highest
// for zero epsilon (SR).

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
  PrintHeader("Figure 9: Number of Aborts vs MPL",
              "aborts at high bounds are almost zero; at low bounds they "
              "shoot up rapidly; zero epsilon (SR) is very high",
              scale);

  Sweep sweep(scale, JobsFromArgs(argc, argv));
  sweep.set_series_export(esr::bench::SeriesPathFromArgs(argc, argv),
                          "fig09_aborts_vs_mpl");
  sweep.set_certify(esr::bench::CertifyFromArgs(argc, argv));
  sweep.set_health(esr::bench::HealthPathFromArgs(argc, argv));
  for (int mpl = 1; mpl <= 10; ++mpl) {
    for (EpsilonLevel level : kLevels) {
      sweep.Add(BaseOptions(level, mpl, scale));
    }
  }
  sweep.Run();

  JsonReport report("fig09_aborts_vs_mpl", sweep.scale());
  Table table({"mpl", "zero(SR)", "low", "medium", "high"});
  size_t point = 0;
  for (int mpl = 1; mpl <= 10; ++mpl) {
    std::vector<std::string> row{std::to_string(mpl)};
    for (EpsilonLevel level : kLevels) {
      const AveragedResult& r = sweep.Result(point++);
      report.AddPoint(std::string(EpsilonLevelToString(level)), mpl, r);
      row.push_back(Table::Int(r.aborts));
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
