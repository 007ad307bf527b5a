#include "obs/health.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "esr/limits.h"
#include "sim/cluster.h"

namespace esr {
namespace {

size_t CountDetector(const HealthReport& report, const std::string& name) {
  size_t n = 0;
  for (const Alert& a : report.alerts) {
    if (a.detector == name) ++n;
  }
  return n;
}

const Alert* FindDetector(const HealthReport& report, const std::string& name) {
  for (const Alert& a : report.alerts) {
    if (a.detector == name) return &a;
  }
  return nullptr;
}

// -- Synthetic detector shapes ----------------------------------------------

TEST(HealthDetectorTest, LivelockDemoFiresWithExactEvidenceWindows) {
  const HealthReport report = AnalyzeSeries(BuildLivelockDemoSeries());
  ASSERT_EQ(report.alerts.size(), 1u);
  const Alert& a = report.alerts[0];
  EXPECT_EQ(a.detector, "abort_livelock");
  EXPECT_EQ(a.severity, AlertSeverity::kError);
  // The demo livelocks windows 12..25 inclusive; the alert must blame
  // exactly that range.
  EXPECT_EQ(a.first_window, 12u);
  EXPECT_EQ(a.last_window, 25u);
  EXPECT_DOUBLE_EQ(a.start_s, 12.0);
  EXPECT_DOUBLE_EQ(a.end_s, 26.0);
  // The episode ends before the series does, so the alert is closed.
  EXPECT_FALSE(a.open);
}

TEST(HealthDetectorTest, BistableDemoFiresThrashingBistability) {
  const HealthReport report = AnalyzeSeries(BuildBistableDemoSeries());
  const Alert* a = FindDetector(report, "thrashing_bistability");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->severity, AlertSeverity::kWarn);
  // Evidence: the two regimes the demo alternates between.
  double mean_high = 0.0, mean_low = 0.0;
  for (const auto& kv : a->evidence) {
    if (kv.first == "mean_high") mean_high = kv.second;
    if (kv.first == "mean_low") mean_low = kv.second;
  }
  EXPECT_NEAR(mean_high, 17.0, 1.0);
  EXPECT_NEAR(mean_low, 7.0, 1.0);
  // No livelock in the bistable shape: both regimes commit.
  EXPECT_EQ(CountDetector(report, "abort_livelock"), 0u);
}

TEST(HealthDetectorTest, SteadyDemoSeriesIsHealthy) {
  // The series demo (ramp then steady ~100/s) must not alert: the ramp
  // is monotone *up*, the steady state has tiny CV at MPL 4.
  const HealthReport report =
      AnalyzeSeries(BuildDemoSeries(/*with_violation=*/false));
  EXPECT_TRUE(report.healthy())
      << "unexpected alert: " << report.alerts[0].detector << ": "
      << report.alerts[0].message;
}

TEST(HealthDetectorTest, IdleSeriesIsNotLivelock) {
  // Zero commits with zero aborts is idleness, not livelock.
  RunSeries series;
  series.window_s = 1.0;
  for (int i = 0; i < 30; ++i) {
    SeriesWindow w;
    w.start_s = i;
    w.duration_s = 1.0;
    series.windows.push_back(w);
  }
  EXPECT_TRUE(AnalyzeSeries(series).healthy());
}

TEST(HealthDetectorTest, ShortStarvationDoesNotFire) {
  // 4 zero-commit windows (below the 5-window default) must not alert.
  RunSeries series = BuildLivelockDemoSeries();
  for (size_t i = 16; i <= 25; ++i) {
    series.windows[i].committed = 50;
    series.windows[i].aborted = 5;
    series.windows[i].restarts = 5;
  }
  EXPECT_EQ(CountDetector(AnalyzeSeries(series), "abort_livelock"), 0u);
}

TEST(HealthDetectorTest, HeadroomMonotoneDrainFires) {
  RunSeries series;
  series.window_s = 1.0;
  series.node_names = {"root"};
  for (int i = 0; i < 30; ++i) {
    SeriesWindow w;
    w.start_s = i;
    w.duration_s = 1.0;
    w.committed = 50;
    w.active_mpl = 4.0;
    SeriesNodeWindow node;
    // Steady monotone drain: 0.95 down toward zero, ~0.03 per window.
    node.min_headroom_frac = 0.95 - 0.03 * i;
    node.max_accumulated = 1.0 - node.min_headroom_frac;
    node.limit_at_min = 1.0;
    node.charges = 40;
    w.nodes = {node};
    series.windows.push_back(std::move(w));
  }
  const HealthReport report = AnalyzeSeries(series);
  const Alert* a = FindDetector(report, "headroom_exhaustion");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->node, "root");
  EXPECT_EQ(a->severity, AlertSeverity::kWarn);
  // Still draining at series end.
  EXPECT_TRUE(a->open);
}

TEST(HealthDetectorTest, NoisyStationaryHeadroomDoesNotFire) {
  // Per-window min headroom in a healthy ESR run is stationary noise
  // that routinely brushes near zero; none of that is an anomaly.
  RunSeries series;
  series.window_s = 1.0;
  series.node_names = {"root"};
  const double noisy[] = {0.05, 0.4, 0.01, 0.3,  0.6, 0.02, 0.2,
                          0.5,  0.1, 0.02, 0.45, 0.3, 0.08, 0.35};
  for (int i = 0; i < 56; ++i) {
    SeriesWindow w;
    w.start_s = i;
    w.duration_s = 1.0;
    w.committed = 50;
    w.active_mpl = 4.0;
    SeriesNodeWindow node;
    node.min_headroom_frac = noisy[i % 14];
    node.limit_at_min = 1.0;
    node.charges = 40;
    w.nodes = {node};
    series.windows.push_back(std::move(w));
  }
  EXPECT_EQ(CountDetector(AnalyzeSeries(series),
                          "headroom_exhaustion"),
            0u);
}

TEST(HealthDetectorTest, NegativeHeadroomIsAnImmediateError) {
  RunSeries series = BuildDemoSeries(/*with_violation=*/true);
  const HealthReport report = AnalyzeSeries(series);
  const Alert* a = FindDetector(report, "headroom_exhaustion");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->severity, AlertSeverity::kError);
}

TEST(HealthDetectorTest, CertificationStallFiresWhenWatermarkFreezes) {
  RunSeries series;
  series.window_s = 1.0;
  for (int i = 0; i < 20; ++i) {
    SeriesWindow w;
    w.start_s = i;
    w.duration_s = 1.0;
    w.committed = 50;
    w.active_mpl = 4.0;
    // The watermark tracks the boundary for 10 windows, then freezes at
    // 10 s (the streaming certifier freezes at the first violation).
    w.certified_through_s = i < 10 ? i + 1.0 : 10.0;
    series.windows.push_back(w);
  }
  const HealthReport report = AnalyzeSeries(series);
  const Alert* a = FindDetector(report, "certification_stall");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->severity, AlertSeverity::kError);
  // Default threshold is 3 windows of lag: frozen at 10 s, window 12
  // ends at 13 s — the first window 3 behind.
  EXPECT_EQ(a->first_window, 12u);
  EXPECT_TRUE(a->open);
}

TEST(HealthDetectorTest, CertificationOffNeverStalls) {
  RunSeries series = BuildLivelockDemoSeries();
  for (SeriesWindow& w : series.windows) w.certified_through_s = -1.0;
  EXPECT_EQ(CountDetector(AnalyzeSeries(series),
                          "certification_stall"),
            0u);
}

// Feeds one window per entry of `windows`, each carrying those per-shard
// op deltas.
HealthReport FeedShardOps(const std::vector<std::vector<int64_t>>& windows) {
  HealthMonitor monitor("", 1.0, {});
  SeriesWindow w;
  w.duration_s = 1.0;
  w.committed = 100;
  for (size_t i = 0; i < windows.size(); ++i) {
    w.start_s = static_cast<double>(i);
    HealthInput input;
    input.shard_ops = windows[i];
    monitor.OnWindow(w, input);
  }
  return monitor.Report();
}

TEST(HealthDetectorTest, ShardImbalanceFiresOnHotShard) {
  // Shard 2 carries ~5.3x the mean op rate.
  const std::vector<int64_t> hot = {100, 100, 3000, 100, 100, 100, 100, 100};
  const HealthReport report = FeedShardOps({hot, hot, hot, hot});
  const Alert* a = FindDetector(report, "shard_imbalance");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->shard, 2);
  EXPECT_TRUE(a->open);
}

TEST(HealthDetectorTest, BalancedShardsStayQuiet) {
  const std::vector<int64_t> balanced = {900, 1100, 1000, 950,
                                         1050, 1000, 980, 1020};
  EXPECT_TRUE(
      FeedShardOps(std::vector<std::vector<int64_t>>(10, balanced)).healthy());
}

// -- Calibration boundaries ---------------------------------------------------
//
// Each detector runs at one fixed calibration; these cases pin every
// threshold on both sides of its edge.

// Healthy windows around `starved` consecutive zero-commit, aborting ones.
RunSeries StarvationSeries(size_t starved) {
  RunSeries series;
  series.window_s = 1.0;
  for (size_t i = 0; i < starved + 10; ++i) {
    SeriesWindow w;
    w.start_s = static_cast<double>(i);
    w.duration_s = 1.0;
    const bool is_starved = i >= 5 && i < 5 + starved;
    w.committed = is_starved ? 0 : 40;
    w.aborted = 3;
    w.restarts = 3;
    w.active_mpl = 2.0;
    series.windows.push_back(w);
  }
  return series;
}

TEST(HealthThresholdTest, LivelockNeedsFiveQualifyingWindows) {
  EXPECT_TRUE(AnalyzeSeries(StarvationSeries(4)).healthy());
  const HealthReport report = AnalyzeSeries(StarvationSeries(5));
  ASSERT_EQ(report.alerts.size(), 1u);
  EXPECT_EQ(report.alerts[0].detector, "abort_livelock");
  EXPECT_EQ(report.alerts[0].first_window, 5u);
  EXPECT_EQ(report.alerts[0].last_window, 9u);
  EXPECT_FALSE(report.alerts[0].open);
}

TEST(HealthThresholdTest, ShardImbalanceRatioEdgeIsFour) {
  // 8 shards, 800 ops: max/mean = max / 100.
  const std::vector<int64_t> just_under = {399, 58, 58, 57, 57, 57, 57, 57};
  const std::vector<int64_t> at_four = {400, 58, 57, 57, 57, 57, 57, 57};
  EXPECT_TRUE(FeedShardOps({just_under, just_under, just_under}).healthy());
  const HealthReport report = FeedShardOps({at_four, at_four, at_four});
  ASSERT_EQ(report.alerts.size(), 1u);
  EXPECT_EQ(report.alerts[0].detector, "shard_imbalance");
  EXPECT_EQ(report.alerts[0].shard, 0);
  EXPECT_EQ(report.alerts[0].first_window, 0u);
  EXPECT_EQ(report.alerts[0].last_window, 2u);
}

TEST(HealthThresholdTest, ShardImbalanceIgnoresWindowsUnder64Ops) {
  // Both shapes are ratio 4.0 on 4 shards; only the 64-op one counts.
  EXPECT_TRUE(FeedShardOps({{63, 0, 0, 0}, {63, 0, 0, 0}}).healthy());
  EXPECT_EQ(CountDetector(FeedShardOps({{64, 0, 0, 0}, {64, 0, 0, 0}}),
                          "shard_imbalance"),
            1u);
}

TEST(HealthThresholdTest, ShardImbalanceNeedsTwoWindows) {
  const std::vector<int64_t> hot = {400, 0, 0, 0};
  const std::vector<int64_t> even = {100, 100, 100, 100};
  EXPECT_TRUE(FeedShardOps({hot, even, hot, even}).healthy());
  const HealthReport report = FeedShardOps({even, hot, hot, even});
  ASSERT_EQ(report.alerts.size(), 1u);
  EXPECT_EQ(report.alerts[0].first_window, 1u);
  EXPECT_EQ(report.alerts[0].last_window, 2u);
  EXPECT_FALSE(report.alerts[0].open);
}

// Windows 10..19 whose certified-through watermark trails each window's
// end by `lag` windows.
RunSeries LaggingSeries(double lag) {
  RunSeries series;
  series.window_s = 1.0;
  for (int i = 10; i < 20; ++i) {
    SeriesWindow w;
    w.start_s = i;
    w.duration_s = 1.0;
    w.committed = 50;
    w.active_mpl = 4.0;
    w.certified_through_s = i + 1.0 - lag;
    series.windows.push_back(w);
  }
  return series;
}

TEST(HealthThresholdTest, CertificationStallEdgeIsThreeWindows) {
  EXPECT_TRUE(AnalyzeSeries(LaggingSeries(2.9)).healthy());
  const HealthReport report = AnalyzeSeries(LaggingSeries(3.0));
  ASSERT_EQ(report.alerts.size(), 1u);
  EXPECT_EQ(report.alerts[0].detector, "certification_stall");
  EXPECT_EQ(report.alerts[0].first_window, 0u);
  EXPECT_EQ(report.alerts[0].last_window, 9u);
  EXPECT_TRUE(report.alerts[0].open);
}

TEST(HealthThresholdTest, BistabilityNeedsMeanMplSeven) {
  RunSeries series = BuildBistableDemoSeries();
  for (SeriesWindow& w : series.windows) w.active_mpl = 6.9;
  EXPECT_EQ(CountDetector(AnalyzeSeries(series), "thrashing_bistability"), 0u);
  for (SeriesWindow& w : series.windows) w.active_mpl = 7.0;
  EXPECT_NE(FindDetector(AnalyzeSeries(series), "thrashing_bistability"),
            nullptr);
}

// Ten charged windows: flat at `start`, then four 0.03 steps down. The
// fitted slope is -1.05/82.5 per window, so the trend reaches zero in
// (start - 0.12) * 82.5 / 1.05 windows.
RunSeries LateDrainSeries(double start) {
  RunSeries series;
  series.window_s = 1.0;
  series.node_names = {"root"};
  for (int i = 0; i < 10; ++i) {
    SeriesWindow w;
    w.start_s = i;
    w.duration_s = 1.0;
    w.committed = 50;
    w.active_mpl = 4.0;
    SeriesNodeWindow node;
    node.min_headroom_frac = start - 0.03 * std::max(0, i - 5);
    node.limit_at_min = 1.0;
    node.charges = 40;
    w.nodes = {node};
    series.windows.push_back(std::move(w));
  }
  return series;
}

TEST(HealthThresholdTest, HeadroomDrainFiresOnlyInsideTheHorizon) {
  // ~20.4 windows to empty: outside the 20-window horizon.
  EXPECT_TRUE(AnalyzeSeries(LateDrainSeries(0.38)).healthy());
  // ~19.6 windows to empty: inside it.
  const HealthReport report = AnalyzeSeries(LateDrainSeries(0.37));
  ASSERT_EQ(report.alerts.size(), 1u);
  const Alert& a = report.alerts[0];
  EXPECT_EQ(a.detector, "headroom_exhaustion");
  EXPECT_EQ(a.node, "root");
  EXPECT_EQ(a.first_window, 9u);
  double windows_to_zero = 0.0;
  for (const auto& kv : a.evidence) {
    if (kv.first == "windows_to_zero") windows_to_zero = kv.second;
  }
  EXPECT_NEAR(windows_to_zero, 0.25 * 82.5 / 1.05, 1e-6);
}

// -- Episode semantics / gauges ---------------------------------------------

TEST(HealthMonitorTest, EpisodeExtendsWhileConditionPersists) {
  const HealthReport report = AnalyzeSeries(BuildLivelockDemoSeries());
  ASSERT_EQ(report.alerts.size(), 1u);
  // One 14-window episode, not 10 alerts (the streak past min_windows
  // extends the same episode).
  EXPECT_EQ(report.alerts[0].last_window - report.alerts[0].first_window + 1,
            14u);
}

TEST(HealthMonitorTest, GaugesTrackActiveEpisodes) {
  HealthMonitor monitor("", 1.0, {});
  const RunSeries demo = BuildLivelockDemoSeries();
  MetricRegistry metrics;
  // Feed through window 20 — inside the livelock episode.
  for (size_t i = 0; i <= 20; ++i) monitor.OnWindow(demo.windows[i]);
  monitor.ExportGauges(&metrics);
  const Gauge* active = metrics.FindGauge("alert.active.abort_livelock");
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->value(), 1.0);
  const Gauge* count = metrics.FindGauge("alert.count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->value(), 1.0);

  // Feed the recovery; the episode closes, the gauge drops.
  for (size_t i = 21; i < demo.windows.size(); ++i) {
    monitor.OnWindow(demo.windows[i]);
  }
  monitor.ExportGauges(&metrics);
  EXPECT_EQ(metrics.FindGauge("alert.active.abort_livelock")->value(), 0.0);
  EXPECT_EQ(metrics.FindGauge("alert.count")->value(), 1.0);
}

// -- Journal round-trip ------------------------------------------------------

TEST(HealthJournalTest, JsonRoundTripsAlerts) {
  const HealthReport report = AnalyzeSeries(BuildLivelockDemoSeries());
  std::ostringstream out;
  WriteHealthJson(report, out);
  std::istringstream in(out.str());
  Result<HealthReport> back = ReadHealthJson(in);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->source, report.source);
  EXPECT_EQ(back->windows, report.windows);
  ASSERT_EQ(back->alerts.size(), report.alerts.size());
  const Alert& a = report.alerts[0];
  const Alert& b = back->alerts[0];
  EXPECT_EQ(b.detector, a.detector);
  EXPECT_EQ(b.severity, a.severity);
  EXPECT_EQ(b.first_window, a.first_window);
  EXPECT_EQ(b.last_window, a.last_window);
  EXPECT_EQ(b.message, a.message);
  EXPECT_EQ(b.open, a.open);
}

TEST(HealthJournalTest, RejectsMalformedJournal) {
  std::istringstream in("{\"not_health\": {}}");
  EXPECT_FALSE(ReadHealthJson(in).ok());
  std::istringstream garbage("{{{");
  EXPECT_FALSE(ReadHealthJson(garbage).ok());
}

TEST(HealthJournalTest, JsonIsDeterministic) {
  const HealthReport a = AnalyzeSeries(BuildBistableDemoSeries());
  const HealthReport b = AnalyzeSeries(BuildBistableDemoSeries());
  std::ostringstream oa, ob;
  WriteHealthJson(a, oa);
  WriteHealthJson(b, ob);
  EXPECT_EQ(oa.str(), ob.str());
}

// -- Recorded runs: the documented phenomena --------------------------------

ClusterOptions RecordedRunOptions(EpsilonLevel level, int mpl, uint64_t seed) {
  ClusterOptions options;
  options.mpl = mpl;
  const TransactionLimits limits = LimitsForLevel(level);
  options.workload.til = limits.til;
  options.workload.tel = limits.tel;
  options.warmup_s = 5.0;
  options.measure_s = 120.0;  // full-scale run length: the documented
                              // phenomena live in long windows
  options.seed = seed;
  options.health = true;
  return options;
}

TEST(HealthRecordedRunTest, Mpl2LowLivelockEpisodeIsDetected) {
  // The EXPERIMENTS.md episodic abort livelock: MPL 2 at low bounds
  // locks two clients into a timestamp-ordering restart cycle. Seed 13
  // reproduces the documented shape — a long zero-commit streak with a
  // live abort rate — in the current engine.
  const SimResult result =
      RunCluster(RecordedRunOptions(EpsilonLevel::kLow, 2, 13));
  const Alert* a = FindDetector(result.health, "abort_livelock");
  ASSERT_NE(a, nullptr) << "livelock episode not detected";
  EXPECT_EQ(a->severity, AlertSeverity::kError);
  // The blamed windows must actually be starved in the recorded series.
  ASSERT_LT(a->last_window, result.series.windows.size());
  int64_t committed = 0;
  int64_t aborted = 0;
  for (size_t i = a->first_window; i <= a->last_window; ++i) {
    committed += result.series.windows[i].committed;
    aborted += result.series.windows[i].aborted;
  }
  EXPECT_EQ(committed, 0) << "blamed windows are not commit-starved";
  EXPECT_GE(aborted, static_cast<int64_t>(a->last_window - a->first_window));
  // Documented episode shape: tens of seconds, not a blip.
  EXPECT_GE(a->last_window - a->first_window + 1, 5u);

  // The journal is a pure function of the seeded run: a rerun writes the
  // same bytes.
  const SimResult rerun =
      RunCluster(RecordedRunOptions(EpsilonLevel::kLow, 2, 13));
  std::ostringstream first, second;
  WriteHealthJson(result.health, first);
  WriteHealthJson(rerun.health, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(HealthRecordedRunTest, HighMplBistabilityIsDetected) {
  // The EXPERIMENTS.md deep-thrashing bistability at MPL >= 8: the
  // committed-per-window series splits into a high and a low regime.
  const SimResult result =
      RunCluster(RecordedRunOptions(EpsilonLevel::kMedium, 9, 7919));
  const Alert* a = FindDetector(result.health, "thrashing_bistability");
  ASSERT_NE(a, nullptr) << "bistable regime not detected";
  double mean_high = 0.0, mean_low = 0.0, cv = 0.0;
  for (const auto& kv : a->evidence) {
    if (kv.first == "mean_high") mean_high = kv.second;
    if (kv.first == "mean_low") mean_low = kv.second;
    if (kv.first == "cv") cv = kv.second;
  }
  EXPECT_GT(mean_high, mean_low) << "regimes not separated";
  EXPECT_GE(cv, 0.4);
}

TEST(HealthRecordedRunTest, StableFig07RowsAreAlertFree) {
  // Zero false-positive budget: the stable fig07 rows (MPL 3 and 6 at
  // every epsilon level) must be clean across seeds {1, 7, 23757}.
  const EpsilonLevel levels[] = {EpsilonLevel::kZero, EpsilonLevel::kLow,
                                 EpsilonLevel::kMedium, EpsilonLevel::kHigh};
  const uint64_t seeds[] = {1, 7, 23757};
  for (int mpl : {3, 6}) {
    for (EpsilonLevel level : levels) {
      for (uint64_t seed : seeds) {
        const SimResult result =
            RunCluster(RecordedRunOptions(level, mpl, seed));
        EXPECT_TRUE(result.health.healthy())
            << "false positive at mpl=" << mpl << " level="
            << static_cast<int>(level) << " seed=" << seed << ": "
            << result.health.alerts[0].detector << ": "
            << result.health.alerts[0].message;
      }
    }
  }
}

}  // namespace
}  // namespace esr
