// Multi-threaded stress + invariant harness for the sharded ESR engine
// (DESIGN.md §"Sharded engine"). Each configuration drives a mixed
// query/update workload at MPL 16-256 over 1/4/8/16 shards through the
// worker-pool session multiplexer, with the global trace recording every
// probe event, then proves from the captured artifacts that concurrency
// never broke the paper's guarantees (a -DESR_DISABLE_TRACING=ON build has
// no trace, and proves only the commit-log and completion checks):
//
//   * the captured stream certifies (CertifySchedule, the certifier
//     `esr audit` runs): zero admitted charges past a declared limit
//     (Sec. 5.3.1), with a clean watermark through the run;
//   * per shard, committed writes respect timestamp order per object
//     (the TO invariant) and land on the owning shard;
//   * the per-shard stats snapshots satisfy their monotone chain;
//   * every session reached its commit target and nothing leaked
//     (num_active == 0, shared budgets fully refunded).
//
// Determinism: session scripts derive from (spec, seed), so a failing
// configuration replays with the same transaction mix; only the thread
// interleaving varies run to run, which is exactly what the invariants
// quantify over. The TSan CI job re-runs the Seed* configurations under
// the race detector.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "engine/sharded/session.h"
#include "engine/sharded/sharded_engine.h"
#include "obs/stream_audit.h"
#include "obs/trace.h"
#include "txn/server.h"

namespace esr {
namespace {

// Population sized so every shard count divides it evenly-ish (CountFor
// handles remainders; 240 = 16 * 15 keeps slices balanced) while the
// default hot set of 20 keeps the conflict ratio high.
constexpr size_t kObjects = 240;
constexpr size_t kGroups = 6;

struct StressConfig {
  size_t shards;
  size_t sessions;  // MPL
  size_t workers;
  int txns_per_session;
  uint64_t seed;
  /// Install an engine-wide shared epsilon budget on top of the
  /// per-transaction declarations.
  bool shared_bounds = false;
  /// Shrink scripts so the MPL-256 run stays inside the trace ring.
  bool small_txns = false;
  /// Object population and write hot-set width. The MPL-256 run widens
  /// both: 256 zero-think-time sessions against a 20-object hot set
  /// generate enough abort/retry probe events to wrap the global trace
  /// ring, and a lossy capture cannot be certified (asserted below).
  size_t objects = kObjects;
  size_t hot_set = 20;
  const char* name = "";
};

// Without this, gtest prints a StressConfig as a byte dump that includes
// the ASLR-dependent name pointer and padding bytes, and CMake's test
// discovery bakes that dump into the ctest names.
void PrintTo(const StressConfig& cfg, std::ostream* os) { *os << cfg.name; }

std::string ConfigName(const ::testing::TestParamInfo<StressConfig>& info) {
  return info.param.name;
}

class ShardedStressTest : public ::testing::TestWithParam<StressConfig> {};

TEST_P(ShardedStressTest, BoundsHoldUnderConcurrency) {
  const StressConfig& cfg = GetParam();

  ServerOptions opt;
  opt.engine = EngineKind::kSharded;
  opt.sharded.num_shards = cfg.shards;
  opt.sharded.record_commit_log = true;
  opt.store.num_objects = cfg.objects;
  opt.store.seed = 400 + cfg.seed;
  Server server(opt);
  ShardedEngine* engine = server.sharded_engine();
  ASSERT_NE(engine, nullptr);
  ASSERT_EQ(engine->num_shards(), cfg.shards);

  // Hierarchy: kGroups sibling groups under the root, objects assigned
  // round-robin so every shard holds members of every group (charges from
  // all shards fold into the same nodes).
  std::vector<GroupId> groups;
  for (size_t g = 0; g < kGroups; ++g) {
    groups.push_back(
        *server.schema().AddGroup("g" + std::to_string(g), kRootGroup));
  }
  for (ObjectId id = 0; id < cfg.objects; ++id) {
    ASSERT_TRUE(server.schema().AssignObject(id, groups[id % kGroups]).ok());
  }

  WorkloadSpec spec;
  spec.num_objects = cfg.objects;
  spec.hot_set_size = cfg.hot_set;
  if (cfg.small_txns) {
    spec.query_ops_min = 6;
    spec.query_ops_max = 10;
    spec.update_ops_min = 3;
    spec.update_ops_max = 5;
  }
  // Hierarchical declarations on every transaction: a root limit plus a
  // tighter per-group limit, so the bottom-up walk exercises real
  // rejections at both levels under contention.
  constexpr Inconsistency kTil = 50'000;
  constexpr Inconsistency kTel = 12'000;
  spec.bound_factory = [&groups](TxnType type) {
    BoundSpec bounds;
    const Inconsistency root =
        type == TxnType::kQuery ? kTil : kTel;
    bounds.SetTransactionLimit(root);
    for (const GroupId g : groups) bounds.SetLimit(g, root / 2);
    return bounds;
  };

  if (cfg.shared_bounds) {
    BoundSpec shared_import;
    shared_import.SetTransactionLimit(kTil * 4);
    for (const GroupId g : groups) shared_import.SetLimit(g, kTil * 2);
    BoundSpec shared_export;
    shared_export.SetTransactionLimit(kTel * 4);
    engine->SetSharedBounds(shared_import, shared_export);
    ASSERT_TRUE(engine->shared_import()->enforced());
    ASSERT_TRUE(engine->shared_export()->enforced());
  }

  GlobalTrace().Reset();
  GlobalTrace().set_enabled(true);

  SessionPoolOptions pool;
  pool.sessions = cfg.sessions;
  pool.txns_per_session = cfg.txns_per_session;
  pool.workers = cfg.workers;
  pool.seed = cfg.seed;
  const SessionPoolResult result = RunSessionWorkers(&server, spec, pool);

  GlobalTrace().set_enabled(false);
  const std::vector<TraceEvent> events = GlobalTrace().Snapshot();
  const uint64_t dropped = GlobalTrace().dropped();

  // -- Completion: every session reached its target, nothing leaked. ------
  EXPECT_EQ(result.total.committed,
            static_cast<int64_t>(cfg.sessions) * cfg.txns_per_session);
  ASSERT_EQ(result.per_session.size(), cfg.sessions);
  for (size_t s = 0; s < result.per_session.size(); ++s) {
    EXPECT_EQ(result.per_session[s].committed, cfg.txns_per_session)
        << "session " << s;
  }
  EXPECT_EQ(engine->num_active(), 0u);
  EXPECT_GT(result.elapsed_s, 0.0);

#ifdef ESR_TRACE_DISABLED
  // Probes are compiled out, so there is no stream to replay. This build
  // certifies the run from the engine's per-shard commit log and the
  // completion and quiescence checks alone.
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(dropped, 0u);
#else
  // -- Trace is complete: a lossy capture cannot certify the full run. ----
  ASSERT_EQ(dropped, 0u) << "trace ring wrapped; shrink the configuration";
  ASSERT_FALSE(events.empty());

  // -- Certification: no admitted charge ever crossed a bound, and the
  //    watermark runs clean past the last event. -------------------------
  int64_t max_ts = events.front().ts_micros;
  for (const TraceEvent& event : events) {
    max_ts = std::max(max_ts, event.ts_micros);
  }
  const StreamCertification cert =
      CertifySchedule(events, /*window_s=*/0.05, /*lost_prefix_events=*/0,
                      /*through_micros=*/max_ts + 100'000);
  EXPECT_GT(cert.walks_replayed, 0u);
  EXPECT_TRUE(cert.certified())
      << cert.violations.size() << " bound violations; first: group "
      << cert.violations[0].group << " accumulated "
      << cert.violations[0].accumulated << " > limit "
      << cert.violations[0].limit;
  EXPECT_GT(cert.certified_through_s, 0.0);
  EXPECT_GE(cert.certified_through_s, static_cast<double>(max_ts) / 1e6);
#endif  // ESR_TRACE_DISABLED

  // -- Per-shard TO invariant: committed writes strictly increase in
  //    timestamp per object and live on the owning shard. ----------------
  std::map<ObjectId, Timestamp> last_commit;
  int64_t logged = 0;
  for (size_t s = 0; s < cfg.shards; ++s) {
    for (const CommitLogEntry& entry : engine->commit_log(s)) {
      ++logged;
      EXPECT_EQ(engine->shard_map().ShardOf(entry.object), s)
          << "object " << entry.object << " committed on foreign shard";
      auto [it, first] = last_commit.emplace(entry.object, entry.ts);
      if (!first) {
        EXPECT_LT(it->second, entry.ts)
            << "out-of-timestamp-order commit on object " << entry.object;
        it->second = entry.ts;
      }
    }
  }
  EXPECT_GT(logged, 0);

  // -- Per-shard stats snapshots satisfy the monotone chain, and the
  //    commit log agrees with the counters. ------------------------------
  int64_t committed_writes = 0;
  for (size_t s = 0; s < cfg.shards; ++s) {
    const ShardStats stats = engine->SnapshotShardStats(s);
    EXPECT_GE(stats.applied_writes, stats.committed_writes) << "shard " << s;
    EXPECT_GE(stats.committed_writes, stats.committed_writers)
        << "shard " << s;
    EXPECT_GE(stats.ops, 0) << "shard " << s;
    committed_writes += stats.committed_writes;
  }
  EXPECT_EQ(committed_writes, logged);
  // Every transaction commits on its own: one batch per commit, so a
  // reintroduced group-commit queue shows up here.
  EXPECT_EQ(engine->commit_batches(), result.total.committed);

  // -- Shared budgets fully refunded at quiescence (charge/uncharge are
  //    exact inverses per transaction). ----------------------------------
  if (cfg.shared_bounds) {
    EXPECT_NEAR(engine->shared_import()->total(), 0.0, 1e-6);
    EXPECT_NEAR(engine->shared_export()->total(), 0.0, 1e-6);
    for (const GroupId g : groups) {
      EXPECT_NEAR(engine->shared_import()->accumulated(g), 0.0, 1e-6);
    }
    // Contention at this MPL guarantees relaxed reads, so the import
    // budget must have been exercised.
    EXPECT_GT(engine->shared_import()->FoldedCharges(), 0);
  }

  // -- Gauge export runs against the quiescent engine without assert or
  //    torn state (the concurrent-scrape case lives in
  //    shard_gauges_test.cc). --------------------------------------------
  engine->ExportShardGauges(&server.metrics());
  const Gauge* batches =
      server.metrics().FindGauge("engine.commit_batches");
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(static_cast<int64_t>(batches->value()),
            engine->commit_batches());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShardedStressTest,
    ::testing::Values(
        // Single shard: the degenerate case, where every op and every
        // commit serializes on one latch.
        StressConfig{.shards = 1, .sessions = 16, .workers = 4,
                     .txns_per_session = 30, .seed = 11,
                     .name = "OneShardMpl16"},
        // The mid configuration, re-run under three seeds (the TSan CI
        // job replays these). Slightly wider hot set than the default:
        // when the host is oversubscribed (parallel ctest, TSan's
        // slowdown) the run stretches and the extra abort-retry probes
        // on a 20-object hot set can wrap the trace ring.
        StressConfig{.shards = 4, .sessions = 32, .workers = 8,
                     .txns_per_session = 25, .seed = 11, .objects = 480,
                     .hot_set = 60, .name = "FourShardMpl32SeedA"},
        StressConfig{.shards = 4, .sessions = 32, .workers = 8,
                     .txns_per_session = 25, .seed = 12, .objects = 480,
                     .hot_set = 60, .name = "FourShardMpl32SeedB"},
        StressConfig{.shards = 4, .sessions = 32, .workers = 8,
                     .txns_per_session = 25, .seed = 13, .objects = 480,
                     .hot_set = 60, .name = "FourShardMpl32SeedC"},
        // Wide sharding with one worker per shard. Wider hot set: under
        // TSan's ~10x slowdown the thread interleavings stretch out and
        // the default 20-object hot set generates enough abort-retry
        // probes to wrap the trace ring.
        StressConfig{.shards = 16, .sessions = 64, .workers = 16,
                     .txns_per_session = 12, .seed = 14, .objects = 480,
                     .hot_set = 80, .name = "SixteenShardMpl64"},
        // Four shards, four workers, MPL 64 over perfbench engine_hot's
        // population (2,000 objects, hot set 100): the (shards, workers)
        // point the sharded engine's throughput is compared at.
        StressConfig{.shards = 4, .sessions = 64, .workers = 4,
                     .txns_per_session = 12, .seed = 17, .objects = 2000,
                     .hot_set = 100, .name = "FourShardFourWorkerMpl64"},
        // Engine-wide shared epsilon budget on top of per-txn bounds.
        StressConfig{.shards = 4, .sessions = 32, .workers = 8,
                     .txns_per_session = 20, .seed = 15,
                     .shared_bounds = true, .name = "SharedBudgetMpl32"},
        // MPL 256: a thundering herd of sessions over 16 workers; small
        // scripts plus a wider population/hot set keep the abort-retry
        // event volume inside the trace ring.
        StressConfig{.shards = 8, .sessions = 256, .workers = 16,
                     .txns_per_session = 3, .seed = 16, .small_txns = true,
                     .objects = 960, .hot_set = 120, .name = "HighMpl256"}),
    ConfigName);

}  // namespace
}  // namespace esr
