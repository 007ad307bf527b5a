// Figure 12: Throughput vs Object Import Limit (OIL), with TIL at each of
// three levels; MPL fixed at 4. OIL is parameterized in units of w, the
// average change in value due to a write (as in the paper), and the OEL
// range is varied together with it, matching Sec. 6: "the values of OIL
// and OEL are randomly generated within a specified range, which is
// varied while the performance tests on object inconsistency limits are
// carried out". Paper shape: for low-to-medium TIL the throughput peaks
// at an INTERMEDIATE OIL — low OIL tolerates too little, high OIL admits
// high-inconsistency operations into transactions that the TIL then
// aborts late, wasting work. At zero OIL the behaviour corresponds to SR.
// See EXPERIMENTS.md: our calibration reproduces the SR endpoint, the
// rise, and the TIL-capped separation, but the interior maximum is
// weaker than the paper's.

#include "harness/harness.h"

#include <cstdio>

namespace {

using esr::bench::AveragedResult;
using esr::bench::BaseOptions;
using esr::bench::JobsFromArgs;
using esr::bench::JsonReport;
using esr::bench::PrintHeader;
using esr::bench::RunScale;
using esr::bench::Sweep;
using esr::bench::Table;

constexpr int kMpl = 4;
constexpr double kOilInW[] = {0, 0.5, 1, 2, 3, 4, 6, 8, 12};
// TIL levels; TEL held high so exports do not interfere.
constexpr double kTilLevels[] = {10'000, 50'000, 100'000};

esr::ClusterOptions PointOptions(double oil_w, double til,
                                 const RunScale& scale) {
  auto opt = BaseOptions(til, /*tel=*/10'000, kMpl, scale);
  const double w = opt.workload.MeanWriteDelta();
  opt.server.store.min_oil = oil_w * w;
  opt.server.store.max_oil = oil_w * w;
  opt.server.store.min_oel = oil_w * w;
  opt.server.store.max_oel = oil_w * w;
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  esr::bench::TraceCapture trace_capture(argc, argv);
  const RunScale scale = RunScale::FromEnv();
  PrintHeader("Figure 12: Throughput vs OIL (TIL varies), MPL = 4",
              "for low/medium TIL the peak throughput occurs at an "
              "intermediate OIL, not at the extremes; OIL = 0 is the SR "
              "case",
              scale);

  Sweep sweep(scale, JobsFromArgs(argc, argv));
  sweep.set_series_export(esr::bench::SeriesPathFromArgs(argc, argv),
                          "fig12_throughput_vs_oil");
  sweep.set_certify(esr::bench::CertifyFromArgs(argc, argv));
  sweep.set_health(esr::bench::HealthPathFromArgs(argc, argv));
  for (const double oil_w : kOilInW) {
    for (const double til : kTilLevels) {
      sweep.Add(PointOptions(oil_w, til, scale));
    }
  }
  sweep.Run();

  JsonReport report("fig12_throughput_vs_oil", sweep.scale());
  Table table({"OIL(w)", "TIL=10000(low)", "TIL=50000(med)",
               "TIL=100000(high)"});
  size_t point = 0;
  for (const double oil_w : kOilInW) {
    std::vector<std::string> row{Table::Num(oil_w, 1)};
    for (const double til : kTilLevels) {
      const AveragedResult& r = sweep.Result(point++);
      report.AddPoint("til=" + Table::Int(til), oil_w, r);
      row.push_back(Table::NumCi(r.throughput, r.ci90_rel));
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf("\nOIL(w): object import limit in units of w = average "
              "write delta (%.0f).\n",
              esr::WorkloadSpec{}.MeanWriteDelta());
  const esr::Status json_status =
      report.WriteToFile(JsonReport::PathFromArgs(argc, argv));
  if (!json_status.ok()) {
    std::fprintf(stderr, "%s\n", json_status.ToString().c_str());
    return 1;
  }
  return 0;
}
