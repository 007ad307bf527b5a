// Throughput of the *real* sharded engine (not the simulator) under a
// high multiprogramming level: 64 zero-think-time client sessions
// multiplexed over a worker pool (engine/sharded/session.h), swept
// across (shards, workers) configurations. Where the figure harnesses
// measure the paper's discrete-event model, this measures the concurrent
// implementation itself — per-shard latching, batched op submission, and
// group commit — so the registry records how the engine scales as shards
// and threads grow.
//
// Each configuration runs `seeds` times (fresh Server each run, only the
// pool seed differs) and reports the mean throughput with the usual 90%
// CI column. The first row (1 shard, 1 worker) is the serial baseline;
// the speedup column is relative to it.
//
// --audit additionally runs a shortened pass of every configuration
// with the global trace enabled and replays the capture through
// BoundWalkReplayer: if concurrency ever admitted a charge past a
// declared hierarchical bound, the process exits 1. The audit pass is
// shorter than the measured runs (the global trace ring is fixed-size
// and a lossy capture cannot be replayed) and its throughput never
// enters the averages, so the recorded numbers stay comparable across
// runs with and without --audit.
//
// Outputs follow the figure-harness conventions: a fixed-width table,
// `--json <path>` for the machine-readable report, and `--registry
// <dir>` to append to the cross-run trend registry for `esr bench`.
//
// Single-core caveat: on one hardware thread the worker pool time-shares
// a core, so the speedup column measures batching/group-commit
// amortization, not parallelism. SPEED.md records both environments.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"
#include "engine/sharded/session.h"
#include "engine/sharded/sharded_engine.h"
#include "harness/harness.h"
#include "hierarchy/bound_replay.h"
#include "obs/trace.h"
#include "txn/server.h"
#include "workload/generator.h"

namespace {

using esr::bench::AveragedResult;
using esr::bench::JsonReport;
using esr::bench::MaybeAppendToRegistry;
using esr::bench::RunScale;
using esr::bench::Table;

struct PoolConfig {
  size_t shards;
  size_t workers;
};

struct RunOutcome {
  double throughput = 0.0;
  int64_t committed = 0;
  int64_t aborts = 0;
  int64_t waits = 0;
};

// Mirrors the stress harness: kGroups sibling groups under the root with
// objects assigned round-robin, and hierarchical declarations on every
// transaction so the engine walks (and the audit replays) real bound
// checks, not a no-op hierarchy.
constexpr size_t kObjects = 2000;
constexpr size_t kHotSet = 100;
constexpr size_t kGroups = 6;
constexpr size_t kSessions = 64;  // the fixed MPL of the sweep
constexpr esr::Inconsistency kTil = 50'000;
constexpr esr::Inconsistency kTel = 12'000;

RunOutcome RunOnce(const PoolConfig& cfg, int txns_per_session,
                   uint64_t seed) {
  esr::ServerOptions opt;
  opt.engine = esr::EngineKind::kSharded;
  opt.sharded.num_shards = cfg.shards;
  opt.store.num_objects = kObjects;
  opt.store.seed = 500 + seed;
  esr::Server server(opt);

  std::vector<esr::GroupId> groups;
  for (size_t g = 0; g < kGroups; ++g) {
    groups.push_back(
        *server.schema().AddGroup("g" + std::to_string(g), esr::kRootGroup));
  }
  for (esr::ObjectId id = 0; id < kObjects; ++id) {
    (void)server.schema().AssignObject(id, groups[id % kGroups]);
  }

  esr::WorkloadSpec spec;
  spec.num_objects = kObjects;
  spec.hot_set_size = kHotSet;
  spec.bound_factory = [&groups](esr::TxnType type) {
    esr::BoundSpec bounds;
    const esr::Inconsistency root =
        type == esr::TxnType::kQuery ? kTil : kTel;
    bounds.SetTransactionLimit(root);
    for (const esr::GroupId g : groups) bounds.SetLimit(g, root / 2);
    return bounds;
  };

  esr::SessionPoolOptions pool;
  pool.sessions = kSessions;
  pool.txns_per_session = txns_per_session;
  pool.workers = cfg.workers;
  pool.seed = seed;
  const esr::SessionPoolResult result =
      esr::RunSessionWorkers(&server, spec, pool);

  RunOutcome out;
  out.committed = result.total.committed;
  out.aborts = result.total.aborts;
  out.waits = result.total.waits;
  out.throughput =
      result.elapsed_s > 0.0
          ? static_cast<double>(result.total.committed) / result.elapsed_s
          : 0.0;
  return out;
}

/// Audit pass: same configuration, trace enabled, replayed through the
/// bound-walk replayer. Returns the number of violations found.
size_t AuditOnce(const PoolConfig& cfg, int txns_per_session,
                 uint64_t seed) {
  esr::GlobalTrace().Reset();
  esr::GlobalTrace().set_enabled(true);
  (void)RunOnce(cfg, txns_per_session, seed);
  esr::GlobalTrace().set_enabled(false);
  const std::vector<esr::TraceEvent> events = esr::GlobalTrace().Snapshot();
  if (esr::GlobalTrace().dropped() > 0) {
    std::fprintf(stderr,
                 "audit %zus/%zuw: trace ring wrapped (%llu dropped) — "
                 "replay would be lossy, shrink the run\n",
                 cfg.shards, cfg.workers,
                 static_cast<unsigned long long>(esr::GlobalTrace().dropped()));
    return 1;
  }
  esr::BoundWalkReplayer replayer;
  for (const esr::TraceEvent& event : events) replayer.OnEvent(event);
  if (!replayer.violations().empty()) {
    std::fprintf(stderr,
                 "audit %zus/%zuw: %zu bound violations (first: group %d "
                 "accumulated %lld > limit %lld)\n",
                 cfg.shards, cfg.workers, replayer.violations().size(),
                 static_cast<int>(replayer.violations()[0].group),
                 static_cast<long long>(replayer.violations()[0].accumulated),
                 static_cast<long long>(replayer.violations()[0].limit));
  } else {
    std::fprintf(stderr,
                 "audit %zus/%zuw: clean (%zu walks, %zu charges)\n",
                 cfg.shards, cfg.workers, replayer.walks_replayed(),
                 replayer.charges_applied());
  }
  return replayer.violations().size();
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const RunScale scale = RunScale::FromEnv();
  const bool full = scale.preset == "full";
  const bool audit = HasFlag(argc, argv, "--audit");
  const int txns_per_session = full ? 200 : 100;
  const int seeds = full ? 7 : 5;
  // Sized so 64 sessions' probe events fit the fixed trace ring with
  // ample margin (a wrapped ring fails the audit as lossy).
  const int audit_txns = 12;

  std::printf(
      "=== high_mpl_throughput: sharded engine, %zu sessions, "
      "%d txns/session, %d seeds%s ===\n\n",
      kSessions, txns_per_session, seeds, audit ? ", audited" : "");

  const PoolConfig configs[] = {{1, 1}, {2, 2}, {4, 4}, {16, 8}};

  JsonReport report("high_mpl_throughput", scale);
  Table table({"shards", "workers", "tput(txn/s)", "speedup", "aborts",
               "waits"});

  double baseline = 0.0;
  size_t violations = 0;
  for (const PoolConfig& cfg : configs) {
    std::vector<double> tputs;
    AveragedResult avg;
    for (int s = 0; s < seeds; ++s) {
      const RunOutcome out =
          RunOnce(cfg, txns_per_session, 20 + static_cast<uint64_t>(s));
      tputs.push_back(out.throughput);
      avg.committed += static_cast<double>(out.committed) / seeds;
      avg.aborts += static_cast<double>(out.aborts) / seeds;
      avg.waits += static_cast<double>(out.waits) / seeds;
    }
    double sum = 0.0;
    for (const double t : tputs) sum += t;
    avg.throughput = sum / static_cast<double>(tputs.size());
    avg.ci90_rel = avg.throughput > 0.0
                       ? esr::Ci90HalfWidth(tputs) / avg.throughput
                       : 0.0;
    if (baseline == 0.0) baseline = avg.throughput;

    if (audit) {
      violations += AuditOnce(cfg, audit_txns, 20 + static_cast<uint64_t>(seeds));
    }

    table.AddRow({Table::Int(static_cast<double>(cfg.shards)),
                  Table::Int(static_cast<double>(cfg.workers)),
                  Table::NumCi(avg.throughput, avg.ci90_rel, 0),
                  Table::Num(avg.throughput / baseline),
                  Table::Int(avg.aborts), Table::Int(avg.waits)});
    report.AddPoint("throughput", static_cast<double>(cfg.shards), avg);
  }

  table.Print();
  std::printf(
      "\nspeedup is vs the 1-shard/1-worker serial baseline. On a "
      "single-core host it\nmeasures batching and group-commit "
      "amortization, not parallelism (SPEED.md).\n");

  const std::string json_path = JsonReport::PathFromArgs(argc, argv);
  const esr::Status json_status = report.WriteToFile(json_path);
  if (!json_status.ok()) {
    std::fprintf(stderr, "json export failed: %s\n",
                 json_status.ToString().c_str());
    return 1;
  }
  const esr::Status reg_status =
      MaybeAppendToRegistry(argc, argv, report, /*jobs=*/1);
  if (!reg_status.ok()) {
    std::fprintf(stderr, "registry append failed: %s\n",
                 reg_status.ToString().c_str());
    return 1;
  }
  if (violations > 0) {
    std::fprintf(stderr, "audit FAILED: %zu violations\n", violations);
    return 1;
  }
  return 0;
}
