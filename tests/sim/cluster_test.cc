#include "sim/cluster.h"

#include <gtest/gtest.h>

#include "esr/limits.h"

namespace esr {
namespace {

ClusterOptions FastOptions(int mpl, EpsilonLevel level, uint64_t seed = 7) {
  ClusterOptions opt;
  opt.mpl = mpl;
  const TransactionLimits limits = LimitsForLevel(level);
  opt.workload.til = limits.til;
  opt.workload.tel = limits.tel;
  opt.warmup_s = 2.0;
  opt.measure_s = 20.0;
  opt.seed = seed;
  return opt;
}

TEST(ClusterTest, SingleClientMakesProgress) {
  const SimResult r = RunCluster(FastOptions(1, EpsilonLevel::kHigh));
  EXPECT_GT(r.committed, 20);
  EXPECT_EQ(r.aborts, 0);          // nothing to conflict with
  EXPECT_EQ(r.waits, 0);
  EXPECT_GT(r.throughput(), 1.0);
  EXPECT_GT(r.ops_executed, r.committed * 5);
}

TEST(ClusterTest, DeterministicGivenSeed) {
  // Same seed, same bytes: every result field, the merged latency
  // distribution and the per-window series must match.
  ClusterOptions options = FastOptions(4, EpsilonLevel::kMedium, 99);
  options.collect_series = true;
  options.series_window_s = 1.0;
  const SimResult a = RunCluster(options);
  const SimResult b = RunCluster(options);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.committed_query, b.committed_query);
  EXPECT_EQ(a.committed_update, b.committed_update);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.ops_executed, b.ops_executed);
  EXPECT_EQ(a.inconsistent_ops, b.inconsistent_ops);
  EXPECT_EQ(a.waits, b.waits);
  EXPECT_EQ(a.import_total, b.import_total);
  EXPECT_EQ(a.export_total, b.export_total);
  EXPECT_EQ(a.txn_latency_total_us, b.txn_latency_total_us);
  EXPECT_EQ(a.latency_ms.count(), b.latency_ms.count());
  ASSERT_FALSE(a.series.windows.empty());
  ASSERT_EQ(a.series.windows.size(), b.series.windows.size());
  for (size_t i = 0; i < a.series.windows.size(); ++i) {
    EXPECT_EQ(a.series.windows[i].committed, b.series.windows[i].committed);
    EXPECT_EQ(a.series.windows[i].aborted, b.series.windows[i].aborted);
    EXPECT_EQ(a.series.windows[i].active_mpl,
              b.series.windows[i].active_mpl);
    EXPECT_EQ(a.series.windows[i].mean_op_latency_ms,
              b.series.windows[i].mean_op_latency_ms);
  }
}

TEST(ClusterTest, DifferentSeedsDiffer) {
  const SimResult a = RunCluster(FastOptions(4, EpsilonLevel::kMedium, 1));
  const SimResult b = RunCluster(FastOptions(4, EpsilonLevel::kMedium, 2));
  EXPECT_NE(a.ops_executed, b.ops_executed);
}

TEST(ClusterTest, SrNeverExecutesInconsistentOps) {
  const SimResult r = RunCluster(FastOptions(5, EpsilonLevel::kZero));
  EXPECT_EQ(r.inconsistent_ops, 0);
  EXPECT_EQ(r.import_total, 0.0);
  EXPECT_GT(r.aborts, 0);  // high-conflict SR must abort sometimes
}

TEST(ClusterTest, EsrExecutesInconsistentOpsUnderContention) {
  const SimResult r = RunCluster(FastOptions(5, EpsilonLevel::kHigh));
  EXPECT_GT(r.inconsistent_ops, 0);
  EXPECT_GT(r.import_total, 0.0);
}

TEST(ClusterTest, EsrOutperformsSrUnderContention) {
  const SimResult sr = RunCluster(FastOptions(6, EpsilonLevel::kZero));
  const SimResult esr = RunCluster(FastOptions(6, EpsilonLevel::kHigh));
  EXPECT_GT(esr.throughput(), sr.throughput() * 1.2);
  EXPECT_LT(esr.aborts, sr.aborts);
}

TEST(ClusterTest, ThroughputScalesAtLowMpl) {
  const SimResult one = RunCluster(FastOptions(1, EpsilonLevel::kHigh));
  const SimResult three = RunCluster(FastOptions(3, EpsilonLevel::kHigh));
  EXPECT_GT(three.throughput(), one.throughput() * 1.8);
}

TEST(ClusterTest, MetricsAreInternallyConsistent) {
  const SimResult r = RunCluster(FastOptions(4, EpsilonLevel::kMedium));
  EXPECT_EQ(r.committed, r.committed_query + r.committed_update);
  EXPECT_GE(r.ops_executed, r.committed);  // every commit ran ops
  EXPECT_GE(r.ops_per_committed_txn(), 1.0);
  EXPECT_GT(r.avg_txn_latency_ms(), 0.0);
  EXPECT_EQ(r.mpl, 4);
  EXPECT_EQ(r.elapsed_s, 20.0);
}

TEST(ClusterTest, ImportedInconsistencyRespectsTilOnAverage) {
  // Every committed query imported at most TIL; so must the average.
  const ClusterOptions opt = FastOptions(5, EpsilonLevel::kLow);
  const SimResult r = RunCluster(opt);
  ASSERT_GT(r.committed_query, 0);
  EXPECT_LE(r.avg_import_per_query(),
            LimitsForLevel(EpsilonLevel::kLow).til);
}

TEST(ClusterTest, ToStringMentionsKeyNumbers) {
  const SimResult r = RunCluster(FastOptions(2, EpsilonLevel::kHigh));
  const std::string s = r.ToString();
  EXPECT_NE(s.find("mpl=2"), std::string::npos);
  EXPECT_NE(s.find("tput="), std::string::npos);
}

TEST(ClusterTest, ServerObjectCountFollowsWorkload) {
  ClusterOptions opt = FastOptions(1, EpsilonLevel::kHigh);
  opt.workload.num_objects = 123;
  Cluster cluster(opt);
  // The TO engine is one shard holding the whole store.
  EXPECT_EQ(cluster.server().sharded_engine()->shard(0).store().size(), 123u);
}

ClusterOptions SeriesOptions(int mpl, EpsilonLevel level, uint64_t seed = 7) {
  ClusterOptions opt = FastOptions(mpl, level, seed);
  opt.collect_series = true;
  opt.series_window_s = 1.0;
  opt.series_source = "cluster_test";
  return opt;
}

TEST(SeriesSamplerTest, SamplingIsPurelyObservational) {
  // The telemetry windows ride on sampling events interleaved into the
  // queue; workload results must be identical with and without them.
  const SimResult plain = RunCluster(FastOptions(4, EpsilonLevel::kMedium));
  const SimResult sampled =
      RunCluster(SeriesOptions(4, EpsilonLevel::kMedium));
  EXPECT_EQ(plain.committed, sampled.committed);
  EXPECT_EQ(plain.aborts, sampled.aborts);
  EXPECT_EQ(plain.ops_executed, sampled.ops_executed);
  EXPECT_EQ(plain.inconsistent_ops, sampled.inconsistent_ops);
  EXPECT_EQ(plain.waits, sampled.waits);
  EXPECT_TRUE(plain.series.windows.empty());
}

TEST(SeriesSamplerTest, WindowsTileTheWholeRun) {
  const SimResult r = RunCluster(SeriesOptions(4, EpsilonLevel::kMedium));
  const RunSeries& series = r.series;
  EXPECT_EQ(series.source, "cluster_test");
  // warmup 2 s + measure 20 s at 1 s windows.
  ASSERT_EQ(series.windows.size(), 22u);
  int64_t committed = 0;
  for (size_t i = 0; i < series.windows.size(); ++i) {
    const SeriesWindow& w = series.windows[i];
    EXPECT_DOUBLE_EQ(w.start_s, static_cast<double>(i));
    EXPECT_DOUBLE_EQ(w.duration_s, 1.0);
    EXPECT_GE(w.active_mpl, 0.0);
    EXPECT_LE(w.active_mpl, 4.0);
    // The synchronous clients resubmit every abort.
    EXPECT_EQ(w.restarts, w.aborted);
    committed += w.committed;
  }
  // Window totals cover warmup too, so they can only exceed the
  // measurement-phase count.
  EXPECT_GE(committed, r.committed);
  EXPECT_GT(committed, 0);
}

#ifndef ESR_TRACE_DISABLED
TEST(SeriesSamplerTest, HeadroomProbesSeeBoundedCharges) {
  const SimResult r = RunCluster(SeriesOptions(5, EpsilonLevel::kMedium));
  const RunSeries& series = r.series;
  ASSERT_FALSE(series.node_names.empty());
  int64_t charges = 0;
  for (const SeriesWindow& w : series.windows) {
    ASSERT_EQ(w.nodes.size(), series.node_names.size());
    for (const SeriesNodeWindow& node : w.nodes) {
      charges += node.charges;
      if (node.charges > 0) {
        // Divergence control admits an op only within its bound, so the
        // observed headroom must never go negative.
        EXPECT_GE(node.min_headroom_frac, 0.0);
        EXPECT_GT(node.limit_at_min, 0.0);
        EXPECT_GE(node.max_accumulated, 0.0);
      }
    }
  }
  EXPECT_GT(charges, 0);
}
#endif  // ESR_TRACE_DISABLED

TEST(SeriesSamplerTest, SeriesIsDeterministicGivenSeed) {
  const SimResult a = RunCluster(SeriesOptions(3, EpsilonLevel::kLow, 42));
  const SimResult b = RunCluster(SeriesOptions(3, EpsilonLevel::kLow, 42));
  ASSERT_EQ(a.series.windows.size(), b.series.windows.size());
  for (size_t i = 0; i < a.series.windows.size(); ++i) {
    EXPECT_EQ(a.series.windows[i].committed, b.series.windows[i].committed);
    EXPECT_EQ(a.series.windows[i].aborted, b.series.windows[i].aborted);
    EXPECT_EQ(a.series.windows[i].mean_op_latency_ms,
              b.series.windows[i].mean_op_latency_ms);
  }
}

// ------------------------------------------------- replicated topology --

ClusterOptions ReplicaOptionsFor(uint64_t seed = 7) {
  ClusterOptions opt;
  opt.mpl = 3;
  opt.workload.query_fraction = 0.0;
  opt.replicas.query_clients = 2;
  opt.replicas.replication.num_replicas = 2;
  opt.replicas.replication.propagation_delay_ms = 100.0;
  opt.replicas.query_til = 10'000;
  opt.warmup_s = 2.0;
  opt.measure_s = 15.0;
  opt.seed = seed;
  return opt;
}

TEST(ReplicaClusterTest, BothSidesMakeProgress) {
  const SimResult r = RunCluster(ReplicaOptionsFor());
  EXPECT_GT(r.committed, 50);
  EXPECT_GT(r.replica_queries.admitted, 50);
  EXPECT_GT(r.replica_queries.admitted_fraction(), 0.5);
}

TEST(ReplicaClusterTest, DeterministicGivenSeed) {
  const SimResult a = RunCluster(ReplicaOptionsFor(11));
  const SimResult b = RunCluster(ReplicaOptionsFor(11));
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.replica_queries.attempted, b.replica_queries.attempted);
  EXPECT_EQ(a.replica_queries.admitted, b.replica_queries.admitted);
}

TEST(ReplicaClusterTest, AdmittedQueriesRespectBudgetAndTruth) {
  const SimResult r = RunCluster(ReplicaOptionsFor());
  ASSERT_GT(r.replica_queries.admitted, 0);
  // Estimates are conservative: estimate >= truth, and within the TIL.
  EXPECT_GE(r.replica_queries.avg_estimated_import() + 1e-9,
            r.replica_queries.avg_true_import());
  EXPECT_LE(r.replica_queries.avg_estimated_import(), 10'000.0);
}

TEST(ReplicaClusterTest, TighterBudgetsAdmitFewerQueries) {
  ClusterOptions tight = ReplicaOptionsFor();
  tight.replicas.query_til = 500;
  ClusterOptions loose = ReplicaOptionsFor();
  loose.replicas.query_til = kUnbounded;
  const SimResult tight_result = RunCluster(tight);
  const SimResult loose_result = RunCluster(loose);
  EXPECT_LT(tight_result.replica_queries.admitted_fraction(),
            loose_result.replica_queries.admitted_fraction());
  EXPECT_EQ(loose_result.replica_queries.admitted_fraction(), 1.0);
}

TEST(ReplicaClusterTest, LongerLagLowersAdmission) {
  ClusterOptions fast = ReplicaOptionsFor();
  fast.replicas.replication.propagation_delay_ms = 10.0;
  ClusterOptions slow = ReplicaOptionsFor();
  slow.replicas.replication.propagation_delay_ms = 2'000.0;
  const SimResult fast_result = RunCluster(fast);
  const SimResult slow_result = RunCluster(slow);
  EXPECT_GT(fast_result.replica_queries.admitted_fraction(),
            slow_result.replica_queries.admitted_fraction());
}

TEST(ReplicaClusterTest, ReplicaQueriesDoNotDepressPrimaryThroughput) {
  // The scaling argument: replica queries consume no primary CPU, so
  // doubling the dashboard load leaves update throughput essentially
  // unchanged.
  ClusterOptions light = ReplicaOptionsFor();
  light.replicas.query_clients = 1;
  ClusterOptions heavy = ReplicaOptionsFor();
  heavy.replicas.query_clients = 8;
  const SimResult light_result = RunCluster(light);
  const SimResult heavy_result = RunCluster(heavy);
  EXPECT_GT(heavy_result.replica_queries.admitted,
            light_result.replica_queries.admitted);
  EXPECT_NEAR(static_cast<double>(heavy_result.committed),
              static_cast<double>(light_result.committed),
              0.15 * static_cast<double>(light_result.committed));
}

TEST(ReplicaClusterTest, CertifiedReplicatedRunCountsRejectedQueries) {
  // The replicated topology runs through the same loop as every other
  // cluster, so certification and health come with it: the primary's
  // bound walks certify clean, and the series counts every update abort
  // and every rejected (retried) replica query as a restart.
  ClusterOptions opt = ReplicaOptionsFor();
  opt.replicas.query_til = 500;  // tight enough that queries get rejected
  opt.certify = true;
  opt.health = true;
  opt.series_source = "cluster_test.replicated";
  // No warmup: the result's counts then cover the series' whole span.
  opt.warmup_s = 0.0;
  const SimResult r = RunCluster(opt);
#ifndef ESR_TRACE_DISABLED
  EXPECT_TRUE(r.certification.enabled);
  EXPECT_GT(r.certification.events_observed, 0u);
  EXPECT_TRUE(r.certification.violations.empty());
#endif
  EXPECT_EQ(r.health.windows, r.series.windows.size());
  ASSERT_EQ(r.series.windows.size(), 15u);
  int64_t restarts = 0;
  for (const SeriesWindow& w : r.series.windows) restarts += w.restarts;
  const int64_t rejected =
      r.replica_queries.attempted - r.replica_queries.admitted;
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(restarts, r.aborts + rejected);
}

}  // namespace
}  // namespace esr
