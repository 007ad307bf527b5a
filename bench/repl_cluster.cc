// Replicated deployment, end to end in the simulator: update clients on
// the primary, dashboard clients running bounded sum queries against
// lagging replicas (the conclusion's future-work scenario). Two sweeps:
// query budget at a fixed lag, and replica fan-out showing that replica
// queries scale without touching primary throughput.

#include "harness/harness.h"

#include <cstdio>

#include "sim/cluster.h"

namespace {

using esr::ClusterOptions;
using esr::Inconsistency;
using esr::SimResult;
using esr::bench::JobsFromArgs;
using esr::bench::ParallelFor;
using esr::bench::RunScale;
using esr::bench::Table;

ClusterOptions BaseOptions(const RunScale& scale) {
  ClusterOptions opt;
  opt.mpl = 4;
  opt.workload.query_fraction = 0.0;  // the primary runs update ETs only
  opt.replicas.query_clients = 4;
  opt.replicas.replication.num_replicas = 2;
  opt.replicas.replication.propagation_delay_ms = 150.0;
  opt.warmup_s = scale.warmup_s;
  opt.measure_s = scale.measure_s;
  return opt;
}

/// One configuration's seeds merged: counts summed, the per-seed average
/// staleness averaged.
struct Merged {
  SimResult total;
  double avg_true_import = 0.0;
};

// Runs every (config, seed) pair across `jobs` workers and merges each
// config's seeds on the calling thread, in seed order, so the output is
// bit-identical to a serial run.
std::vector<Merged> RunConfigs(const std::vector<ClusterOptions>& configs,
                               const RunScale& scale, int jobs) {
  const size_t seeds = static_cast<size_t>(scale.seeds);
  std::vector<SimResult> raw(configs.size() * seeds);
  ParallelFor(raw.size(), jobs, [&](size_t task) {
    ClusterOptions opt = configs[task / seeds];
    opt.seed = static_cast<uint64_t>(task % seeds + 1) * 131;
    opt.owns_trace = jobs == 1;
    raw[task] = esr::RunCluster(opt);
  });

  std::vector<Merged> merged(configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    Merged& m = merged[c];
    for (size_t seed = 0; seed < seeds; ++seed) {
      const SimResult& r = raw[c * seeds + seed];
      m.total.elapsed_s += r.elapsed_s;
      m.total.committed += r.committed;
      m.total.replica_queries += r.replica_queries;
      m.avg_true_import += r.replica_queries.avg_true_import();
    }
    m.avg_true_import /= scale.seeds;
  }
  return merged;
}

}  // namespace

int main(int argc, char** argv) {
  esr::bench::TraceCapture trace_capture(argc, argv);
  const RunScale scale = RunScale::FromEnv();
  std::printf(
      "=== Replicated deployment (DES): bounded dashboards on replicas "
      "===\n");
  std::printf("Extension (paper Sec. 9 future work); propagation lag 150 "
              "ms, 2 replicas.\n\n");

  const Inconsistency kBudgets[] = {0.0, 1'000.0, 5'000.0, 20'000.0,
                                    esr::kUnbounded};
  const int kFanouts[] = {1, 2, 4, 8, 16};

  std::vector<ClusterOptions> configs;
  for (const Inconsistency til : kBudgets) {
    auto opt = BaseOptions(scale);
    opt.replicas.query_til = til;
    configs.push_back(opt);
  }
  for (const int clients : kFanouts) {
    auto opt = BaseOptions(scale);
    opt.replicas.query_til = 10'000;
    opt.replicas.query_clients = clients;
    configs.push_back(opt);
  }
  const std::vector<Merged> results =
      RunConfigs(configs, scale, JobsFromArgs(argc, argv));
  size_t point = 0;

  std::printf("Query budget sweep (4 update + 4 query clients):\n");
  Table budget({"query TIL", "admit%", "query tput", "true staleness",
                "primary tput"});
  for (const Inconsistency til : kBudgets) {
    const Merged& m = results[point++];
    const SimResult& r = m.total;
    budget.AddRow({til == esr::kUnbounded ? "inf" : Table::Int(til),
                   Table::Num(100.0 * r.replica_queries.admitted_fraction(),
                              0) +
                       "%",
                   Table::Num(r.replica_query_throughput(), 1),
                   Table::Num(m.avg_true_import, 0),
                   Table::Num(r.throughput(), 1)});
  }
  budget.Print();

  std::printf("\nDashboard fan-out sweep (query TIL = 10k): replica "
              "queries add throughput\nwithout consuming primary "
              "capacity:\n");
  Table fanout({"query clients", "query tput", "primary tput"});
  for (const int clients : kFanouts) {
    const SimResult& r = results[point++].total;
    fanout.AddRow({std::to_string(clients),
                   Table::Num(r.replica_query_throughput(), 1),
                   Table::Num(r.throughput(), 1)});
  }
  fanout.Print();
  return 0;
}
