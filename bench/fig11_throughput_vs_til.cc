// Figure 11: Throughput vs Transaction Import Limit (TIL), with TEL held
// at each of three constant levels; MPL fixed at 4. Expected shape:
// throughput increases with TIL, with the steepest slope at small-to-
// medium TIL values (most transactions need only that much slack) and a
// long flattening tail covered by the few transactions that need large
// bounds.

#include "harness/harness.h"

#include <cstdio>
#include <string>

namespace {

using esr::Inconsistency;
using esr::bench::AveragedResult;
using esr::bench::BaseOptions;
using esr::bench::JobsFromArgs;
using esr::bench::JsonReport;
using esr::bench::PrintHeader;
using esr::bench::RunScale;
using esr::bench::Sweep;
using esr::bench::Table;

constexpr int kMpl = 4;
constexpr double kTilSweep[] = {0,      2'000,  5'000,  10'000, 20'000,
                                35'000, 50'000, 75'000, 100'000};
constexpr double kTelLevels[] = {1'000, 5'000, 10'000};

}  // namespace

int main(int argc, char** argv) {
  esr::bench::TraceCapture trace_capture(argc, argv);
  const RunScale scale = RunScale::FromEnv();
  PrintHeader("Figure 11: Throughput vs TIL (TEL varies), MPL = 4",
              "throughput rises with TIL; slope highest at small-to-medium "
              "TIL, flattening at high TIL",
              scale);

  Sweep sweep(scale, JobsFromArgs(argc, argv));
  sweep.set_series_export(esr::bench::SeriesPathFromArgs(argc, argv),
                          "fig11_throughput_vs_til");
  sweep.set_certify(esr::bench::CertifyFromArgs(argc, argv));
  sweep.set_health(esr::bench::HealthPathFromArgs(argc, argv));
  for (const double til : kTilSweep) {
    for (const double tel : kTelLevels) {
      sweep.Add(BaseOptions(til, tel, kMpl, scale));
    }
  }
  sweep.Run();

  JsonReport report("fig11_throughput_vs_til", sweep.scale());
  Table table({"TIL", "TEL=1000(low)", "TEL=5000(med)", "TEL=10000(high)"});
  size_t point = 0;
  for (const double til : kTilSweep) {
    std::vector<std::string> row{Table::Int(til)};
    for (const double tel : kTelLevels) {
      const AveragedResult& r = sweep.Result(point++);
      report.AddPoint("tel=" + Table::Int(tel), til, r);
      row.push_back(Table::NumCi(r.throughput, r.ci90_rel));
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
