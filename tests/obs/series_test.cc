#include "obs/series.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/metrics.h"

namespace esr {
namespace {

RunSeries RoundTrip(const RunSeries& series) {
  std::ostringstream out;
  WriteSeriesCsv(series, out);
  std::istringstream in(out.str());
  Result<RunSeries> read = ReadSeriesCsv(in);
  EXPECT_TRUE(read.ok()) << read.status().ToString();
  return *std::move(read);
}

TEST(SeriesCsvTest, DemoSeriesRoundTripsExactly) {
  const RunSeries demo = BuildDemoSeries(/*with_violation=*/false);
  const RunSeries back = RoundTrip(demo);

  EXPECT_EQ(back.source, demo.source);
  EXPECT_EQ(back.window_s, demo.window_s);
  ASSERT_EQ(back.node_names, demo.node_names);
  ASSERT_EQ(back.windows.size(), demo.windows.size());
  for (size_t i = 0; i < demo.windows.size(); ++i) {
    const SeriesWindow& a = demo.windows[i];
    const SeriesWindow& b = back.windows[i];
    EXPECT_EQ(b.start_s, a.start_s) << "window " << i;
    EXPECT_EQ(b.duration_s, a.duration_s);
    EXPECT_EQ(b.committed, a.committed);
    EXPECT_EQ(b.aborted, a.aborted);
    EXPECT_EQ(b.restarts, a.restarts);
    EXPECT_EQ(b.active_mpl, a.active_mpl);
    EXPECT_EQ(b.mean_op_latency_ms, a.mean_op_latency_ms);
    ASSERT_EQ(b.nodes.size(), a.nodes.size());
    for (size_t n = 0; n < a.nodes.size(); ++n) {
      EXPECT_EQ(b.nodes[n].max_accumulated, a.nodes[n].max_accumulated);
      EXPECT_EQ(b.nodes[n].min_headroom_frac, a.nodes[n].min_headroom_frac);
      EXPECT_EQ(b.nodes[n].limit_at_min, a.nodes[n].limit_at_min);
      EXPECT_EQ(b.nodes[n].charges, a.nodes[n].charges);
    }
  }
}

TEST(SeriesCsvTest, CommasInNamesAreEscapedNotQuoted) {
  RunSeries series;
  series.source = "fig07 mpl=10, til=2";
  series.window_s = 0.5;
  series.node_names = {"a,b"};
  SeriesWindow w;
  w.duration_s = 0.5;
  w.committed = 1;
  SeriesNodeWindow node;
  node.charges = 1;
  node.min_headroom_frac = 0.5;
  w.nodes = {node};
  series.windows.push_back(w);

  const RunSeries back = RoundTrip(series);
  EXPECT_EQ(back.window_s, 0.5);
  EXPECT_EQ(back.source, "fig07 mpl=10_ til=2");
  ASSERT_EQ(back.node_names.size(), 1u);
  EXPECT_EQ(back.node_names[0], "a_b");
}

TEST(SeriesCsvTest, CertifiedWatermarkColumnRoundTrips) {
  RunSeries series;
  series.source = "certify";
  series.window_s = 1.0;
  for (int i = 0; i < 3; ++i) {
    SeriesWindow w;
    w.start_s = static_cast<double>(i);
    w.duration_s = 1.0;
    w.committed = 5;
    w.certified_through_s = static_cast<double>(i + 1);
    series.windows.push_back(w);
  }
  // A violation froze the watermark in the last window.
  series.windows[2].certified_through_s = 2.0;

  const RunSeries back = RoundTrip(series);
  ASSERT_EQ(back.windows.size(), 3u);
  EXPECT_EQ(back.windows[0].certified_through_s, 1.0);
  EXPECT_EQ(back.windows[1].certified_through_s, 2.0);
  EXPECT_EQ(back.windows[2].certified_through_s, 2.0);
}

TEST(SeriesCsvTest, LegacyFourteenFieldRowsReadAsCertificationOff) {
  const std::string magic = "# esr-series v1 window_s=1\n";
  // Pre-certification 14-field layout, and the 15-field layout with an
  // empty watermark cell: both read as "certification off" (-1).
  for (const char* row : {"window,0,0,1,5,0,0,1,2,,,,,\n",
                          "window,0,0,1,5,0,0,1,2,,,,,,\n"}) {
    std::istringstream in(magic + row);
    Result<RunSeries> read = ReadSeriesCsv(in);
    ASSERT_TRUE(read.ok()) << row << read.status().ToString();
    const RunSeries series = *std::move(read);
    ASSERT_EQ(series.windows.size(), 1u) << row;
    EXPECT_EQ(series.windows[0].certified_through_s, -1.0) << row;
  }
}

TEST(SeriesCsvTest, ReaderRejectsMalformedInput) {
  const auto read = [](const std::string& text) {
    std::istringstream in(text);
    return ReadSeriesCsv(in);
  };
  // Empty stream and wrong magic.
  EXPECT_FALSE(read("").ok());
  EXPECT_FALSE(read("kind,window\n").ok());

  const std::string magic = "# esr-series v1 window_s=1\n";
  // Wrong field count.
  EXPECT_FALSE(read(magic + "window,0,0,1\n").ok());
  // Non-contiguous window index.
  EXPECT_FALSE(read(magic + "window,1,0,1,5,0,0,1,2,,,,,\n").ok());
  // Node row before its window exists.
  EXPECT_FALSE(read(magic + "node,0,,,,,,,,root,1,0.5,10,3\n").ok());
  // Node row without a name.
  EXPECT_FALSE(
      read(magic + "window,0,0,1,5,0,0,1,2,,,,,\n"
                   "node,0,,,,,,,,,1,0.5,10,3\n")
          .ok());
  // Unknown row kind.
  EXPECT_FALSE(read(magic + "bogus,0,0,1,5,0,0,1,2,,,,,\n").ok());
  // Errors name the offending line.
  const auto bad = read(magic + "window,0,0,1,5,0,0,1,2,,,,,\n"
                                "window,7,0,1,5,0,0,1,2,,,,,\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("line 3"), std::string::npos)
      << bad.status().ToString();
}

// A numeric field must parse whole: `12x` used to read as 12, and `abc`
// or an empty field as 0, so a corrupted file was accepted.
TEST(SeriesCsvTest, PartlyNumericFieldsAreRejectedByName) {
  const auto read = [](const std::string& text) {
    std::istringstream in(text);
    return ReadSeriesCsv(in);
  };
  const auto expect_bad = [&read](const std::string& text,
                                  const std::string& field) {
    const auto bad = read(text);
    ASSERT_FALSE(bad.ok()) << text;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(bad.status().message().find("bad " + field + " '"),
              std::string::npos)
        << bad.status().ToString();
  };
  const std::string magic = "# esr-series v1 window_s=1\n";
  const std::string window = "window,0,0,1,5,0,0,1,2,,,,,,\n";
  ASSERT_TRUE(read(magic + window + "node,0,,,,,,,,root,1,0.5,10,3,\n").ok());

  for (const std::string form : {"12x", "abc", ""}) {
    SCOPED_TRACE("form '" + form + "'");
    expect_bad("# esr-series v1 window_s=" + form + "\n" + window,
               "window_s");
    expect_bad(magic + "window," + form + ",0,1,5,0,0,1,2,,,,,,\n", "window");
    expect_bad(magic + "window,0,0,1," + form + ",0,0,1,2,,,,,,\n",
               "committed");
    expect_bad(magic + "window,0,0,1,5,0,0,1," + form + ",,,,,,\n",
               "mean_op_latency_ms");
    expect_bad(magic + window + "node,0,,,,,,,,root," + form + ",0.5,10,3,\n",
               "max_accumulated");
    expect_bad(magic + window + "node,0,,,,,,,,root,1,0.5,10," + form + ",\n",
               "charges");
    if (!form.empty()) {  // an empty watermark means certification off
      expect_bad(magic + "window,0,0,1,5,0,0,1,2,,,,,," + form + "\n",
                 "certified_through_s");
    }
  }
  // Negative and out-of-range integers are not window indices or counts.
  expect_bad(magic + "window,-1,0,1,5,0,0,1,2,,,,,,\n", "window");
  expect_bad(magic + "window,0,0,1,99999999999999999999,0,0,1,2,,,,,,\n",
             "committed");
}

TEST(SeriesTest, ThroughputSeriesIsCommittedPerSecond) {
  RunSeries series;
  SeriesWindow w;
  w.duration_s = 2.0;
  w.committed = 50;
  series.windows.push_back(w);
  w.duration_s = 0.0;  // zero-length window must not divide by zero
  w.committed = 10;
  series.windows.push_back(w);
  const std::vector<double> tput = series.ThroughputSeries();
  ASSERT_EQ(tput.size(), 2u);
  EXPECT_EQ(tput[0], 25.0);
  EXPECT_EQ(tput[1], 0.0);
}

TEST(SeriesSummaryTest, DemoSeriesSettlesAfterTheRamp) {
  const SeriesSummary s = SummarizeSeries(BuildDemoSeries(false));
  EXPECT_EQ(s.total_windows, 30u);
  EXPECT_TRUE(s.steady_state_found);
  // MSER-5 cuts the 8-window ramp at the 2-batch boundary.
  EXPECT_EQ(s.warmup_windows, 10u);
  EXPECT_DOUBLE_EQ(s.steady_throughput, 100.0);
  EXPECT_GT(s.steady_abort_rate, 0.0);
  EXPECT_LT(s.steady_abort_rate, 0.1);
  EXPECT_DOUBLE_EQ(s.steady_mean_mpl, 8.0);

  EXPECT_TRUE(s.headroom_observed);
  EXPECT_FALSE(s.negative_headroom);
  // The 'accounts' node runs closest to its bound in the demo.
  EXPECT_EQ(s.tightest_node, "accounts");
  EXPECT_GT(s.tightest_headroom_frac, 0.0);
  EXPECT_EQ(s.tightest_limit, 2.0);

  ASSERT_EQ(s.nodes.size(), 3u);
  for (const SeriesNodeSummary& node : s.nodes) {
    EXPECT_GT(node.charges, 0);
    EXPECT_DOUBLE_EQ(node.utilization, 1.0 - node.min_headroom_frac);
  }
}

TEST(SeriesSummaryTest, NegativeHeadroomIsDetectedAndNamed) {
  const SeriesSummary s = SummarizeSeries(BuildDemoSeries(true));
  EXPECT_TRUE(s.negative_headroom);
  EXPECT_EQ(s.tightest_node, "accounts");
  EXPECT_EQ(s.tightest_window, 20u);
  EXPECT_DOUBLE_EQ(s.tightest_headroom_frac, -0.05);
}

TEST(SeriesSummaryTest, EmptySeriesSummarizesToDefaults) {
  const SeriesSummary s = SummarizeSeries(RunSeries{});
  EXPECT_EQ(s.total_windows, 0u);
  EXPECT_FALSE(s.steady_state_found);
  EXPECT_FALSE(s.headroom_observed);
  EXPECT_FALSE(s.negative_headroom);
}

TEST(SeriesSummaryTest, JsonCarriesTheVerdict) {
  std::ostringstream out;
  WriteSeriesSummaryJson(SummarizeSeries(BuildDemoSeries(true)), out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"negative_headroom\":true"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"steady_state_found\":true"), std::string::npos);
  EXPECT_NE(json.find("\"node\":\"accounts\""), std::string::npos);
}

TEST(HeadroomGaugeTest, PublishesPerNodeAndGlobalMinima) {
  RunSeries series;
  series.node_names = {"root", "idle"};
  for (int i = 0; i < 3; ++i) {
    SeriesWindow w;
    w.duration_s = 1.0;
    SeriesNodeWindow root;
    root.charges = 5;
    root.min_headroom_frac = 0.9 - 0.2 * i;  // min over windows: 0.5
    SeriesNodeWindow idle;                   // never charged
    w.nodes = {root, idle};
    series.windows.push_back(w);
  }
  MetricRegistry metrics;
  ExportHeadroomGauges(series, &metrics);
  const Gauge* root = metrics.FindGauge("headroom.min_frac.root");
  ASSERT_NE(root, nullptr);
  EXPECT_DOUBLE_EQ(root->value(), 0.5);
  // Uncharged nodes publish nothing (a 1.0 gauge would read as "healthy"
  // when it really means "no data").
  EXPECT_EQ(metrics.FindGauge("headroom.min_frac.idle"), nullptr);
  const Gauge* global = metrics.FindGauge("headroom.min_frac");
  ASSERT_NE(global, nullptr);
  EXPECT_DOUBLE_EQ(global->value(), 0.5);

  // Null registry is a documented no-op.
  ExportHeadroomGauges(series, nullptr);
}

}  // namespace
}  // namespace esr
