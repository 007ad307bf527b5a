// Figure 13: Average number of operations executed per completed
// transaction vs OIL (OEL swept together with it, as in the paper's
// prototype), with TIL at each of three levels; MPL fixed at 4. Includes
// the operations of aborted attempts (wasted work). Paper shape: at high
// TIL the count decreases monotonically as OIL loosens; at low TIL "the
// effect of TIL slowly creeps in as OIL increases" and past a point the
// count rises again — high-inconsistency operations admitted by a loose
// OIL inflate the transaction's total import until the TIL aborts it
// late, after more operations were executed and wasted. The effect
// concentrates in query ETs, so both the all-transaction and the
// query-only counts are reported; in our calibration the low-TIL query
// curve flattens and crosses above the high-TIL curves (see
// EXPERIMENTS.md).

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
constexpr double kOilInW[] = {0.5, 1, 2, 3, 4, 6, 8, 12};
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
  PrintHeader(
      "Figure 13: Avg operations per completed txn vs OIL (TIL varies), "
      "MPL = 4",
      "decreases with OIL at high TIL; at low TIL it rises again past an "
      "intermediate OIL (late TIL aborts waste more ops per transaction)",
      scale);

  Sweep sweep(scale, JobsFromArgs(argc, argv));
  sweep.set_series_export(esr::bench::SeriesPathFromArgs(argc, argv),
                          "fig13_ops_per_txn_vs_oil");
  sweep.set_certify(esr::bench::CertifyFromArgs(argc, argv));
  sweep.set_health(esr::bench::HealthPathFromArgs(argc, argv));
  for (const double oil_w : kOilInW) {
    for (const double til : kTilLevels) {
      sweep.Add(PointOptions(oil_w, til, scale));
    }
  }
  sweep.Run();

  JsonReport report("fig13_ops_per_txn_vs_oil", sweep.scale());
  Table all({"OIL(w)", "TIL=10000(low)", "TIL=50000(med)",
             "TIL=100000(high)"});
  Table queries({"OIL(w)", "TIL=10000(low)", "TIL=50000(med)",
                 "TIL=100000(high)"});
  size_t point = 0;
  for (const double oil_w : kOilInW) {
    std::vector<std::string> all_row{Table::Num(oil_w, 1)};
    std::vector<std::string> query_row{Table::Num(oil_w, 1)};
    for (const double til : kTilLevels) {
      const AveragedResult& r = sweep.Result(point++);
      report.AddPoint("til=" + Table::Int(til), oil_w, r);
      all_row.push_back(Table::Num(r.ops_per_committed_txn));
      query_row.push_back(Table::Num(r.query_ops_per_committed_query));
    }
    all.AddRow(all_row);
    queries.AddRow(query_row);
  }
  std::printf("All transactions:\n");
  all.Print();
  std::printf("\nQuery ETs only (ops per committed query, where the "
              "TIL-driven waste concentrates):\n");
  queries.Print();
  const esr::Status json_status =
      report.WriteToFile(JsonReport::PathFromArgs(argc, argv));
  if (!json_status.ok()) {
    std::fprintf(stderr, "%s\n", json_status.ToString().c_str());
    return 1;
  }
  return 0;
}
