#include "harness/harness.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/series.h"
#include "obs/trace.h"

namespace esr {
namespace bench {
namespace {

// Builds a mutable argv from string literals for the flag-scan tests.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    for (std::string& s : strings_) pointers_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> pointers_;
};

TEST(FlagValueTest, FindsFlagAnywhereInArgv) {
  Argv args({"bin", "--json", "out.json", "--jobs", "4"});
  EXPECT_EQ(FlagValue(args.argc(), args.argv(), "--jobs", nullptr), "4");
  EXPECT_EQ(FlagValue(args.argc(), args.argv(), "--json", nullptr),
            "out.json");
}

TEST(FlagValueTest, FirstOccurrenceWins) {
  Argv args({"bin", "--jobs", "2", "--jobs", "9"});
  EXPECT_EQ(FlagValue(args.argc(), args.argv(), "--jobs", nullptr), "2");
}

TEST(FlagValueTest, MissingValueIsIgnored) {
  Argv args({"bin", "--jobs"});
  EXPECT_EQ(FlagValue(args.argc(), args.argv(), "--jobs", nullptr), "");
}

TEST(FlagValueTest, EnvironmentIsTheFallback) {
  Argv args({"bin"});
  ::setenv("ESR_TEST_FLAG_FALLBACK", "from-env", /*overwrite=*/1);
  EXPECT_EQ(FlagValue(args.argc(), args.argv(), "--nope",
                      "ESR_TEST_FLAG_FALLBACK"),
            "from-env");
  Argv with_flag({"bin", "--nope", "from-argv"});
  EXPECT_EQ(FlagValue(with_flag.argc(), with_flag.argv(), "--nope",
                      "ESR_TEST_FLAG_FALLBACK"),
            "from-argv");
  ::unsetenv("ESR_TEST_FLAG_FALLBACK");
  EXPECT_EQ(FlagValue(args.argc(), args.argv(), "--nope",
                      "ESR_TEST_FLAG_FALLBACK"),
            "");
}

TEST(JobsFromArgsTest, FlagWinsOverEnvironment) {
  ::setenv("ESR_BENCH_JOBS", "3", /*overwrite=*/1);
  Argv args({"bin", "--jobs", "5"});
  EXPECT_EQ(JobsFromArgs(args.argc(), args.argv()), 5);
  Argv no_flag({"bin"});
  EXPECT_EQ(JobsFromArgs(no_flag.argc(), no_flag.argv()), 3);
  ::unsetenv("ESR_BENCH_JOBS");
}

TEST(JobsFromArgsTest, RejectsAnythingButAPositiveInteger) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw == 0 ? 1 : static_cast<int>(hw);
  for (const char* bad : {"2x", "abc", "0", "-1", "+2", " 2", "", "1.5"}) {
    SCOPED_TRACE(bad);
    Argv args({"bin", "--jobs", bad});
    EXPECT_EQ(JobsFromArgs(args.argc(), args.argv()), fallback);
  }
  Argv good({"bin", "--jobs", "3"});
  EXPECT_EQ(JobsFromArgs(good.argc(), good.argv()), 3);
  ::setenv("ESR_BENCH_JOBS", "2x", /*overwrite=*/1);
  Argv no_flag({"bin"});
  EXPECT_EQ(JobsFromArgs(no_flag.argc(), no_flag.argv()), fallback);
  ::unsetenv("ESR_BENCH_JOBS");
}

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  for (const int jobs : {1, 4}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    ParallelFor(hits.size(), jobs, [&](size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, InlineWhenSingleJob) {
  const std::thread::id self = std::this_thread::get_id();
  bool same_thread = false;
  ParallelFor(1, /*jobs=*/1,
              [&](size_t) { same_thread = std::this_thread::get_id() == self; });
  EXPECT_TRUE(same_thread);
}

TEST(SeedForRunTest, MatchesTheDocumentedFormula) {
  EXPECT_EQ(SeedForRun(0), 7919u);
  EXPECT_EQ(SeedForRun(1), 2u * 7919u);
  EXPECT_EQ(SeedForRun(6), 7u * 7919u);
}

// Short simulation windows keep the determinism tests fast while still
// exercising real Cluster runs end to end.
RunScale TinyScale() {
  RunScale scale;
  scale.warmup_s = 0.05;
  scale.measure_s = 0.3;
  scale.seeds = 2;
  return scale;
}

std::string ReportJson(const Sweep& sweep, const RunScale& scale,
                       size_t points) {
  JsonReport report("harness_test", scale);
  for (size_t p = 0; p < points; ++p) {
    report.AddPoint("series", static_cast<double>(p), sweep.Result(p));
  }
  std::ostringstream out;
  report.Write(out);
  return out.str();
}

TEST(SweepTest, SerialAndParallelReportsAreByteIdentical) {
  const RunScale scale = TinyScale();
  const int kPoints = 3;
  std::string serial, parallel;
  {
    Sweep sweep(scale, /*jobs=*/1);
    for (int mpl = 1; mpl <= kPoints; ++mpl) {
      sweep.Add(BaseOptions(EpsilonLevel::kHigh, mpl, scale));
    }
    sweep.Run();
    serial = ReportJson(sweep, scale, kPoints);
  }
  {
    Sweep sweep(scale, /*jobs=*/8);
    for (int mpl = 1; mpl <= kPoints; ++mpl) {
      sweep.Add(BaseOptions(EpsilonLevel::kHigh, mpl, scale));
    }
    sweep.Run();
    parallel = ReportJson(sweep, scale, kPoints);
  }
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(SweepTest, RunAveragedMatchesSweepForAnyJobsCount) {
  const RunScale scale = TinyScale();
  const ClusterOptions options =
      BaseOptions(EpsilonLevel::kMedium, /*mpl=*/2, scale);
  const AveragedResult serial = RunAveraged(options, scale, /*jobs=*/1);
  const AveragedResult parallel = RunAveraged(options, scale, /*jobs=*/8);
  EXPECT_EQ(serial.throughput, parallel.throughput);
  EXPECT_EQ(serial.throughput_stddev, parallel.throughput_stddev);
  EXPECT_EQ(serial.ci90_rel, parallel.ci90_rel);
  EXPECT_EQ(serial.committed, parallel.committed);
  EXPECT_EQ(serial.aborts, parallel.aborts);
  EXPECT_EQ(serial.ops_executed, parallel.ops_executed);
  EXPECT_EQ(serial.inconsistent_ops, parallel.inconsistent_ops);
  EXPECT_EQ(serial.avg_txn_latency_ms, parallel.avg_txn_latency_ms);
  EXPECT_EQ(serial.latency_ms.count(), parallel.latency_ms.count());
  EXPECT_EQ(serial.latency_ms.mean(), parallel.latency_ms.mean());
}

TEST(SweepTest, CiHalfWidthIsPopulatedAcrossSeeds) {
  const RunScale scale = TinyScale();  // two seeds: a CI exists
  const AveragedResult r =
      RunAveraged(BaseOptions(EpsilonLevel::kMedium, /*mpl=*/3, scale),
                  scale, /*jobs=*/1);
  ASSERT_GT(r.throughput, 0.0);
  // Two distinct seeds essentially never tie exactly.
  EXPECT_GT(r.ci90_rel, 0.0);
  // ci90_rel is the Student-t half-width over the per-seed throughputs,
  // relative to the mean; with stddev known, cross-check the formula
  // (n = 2, t_{0.95,1} = 6.314, hw = t * s / sqrt(2)).
  const double expected =
      6.314 * r.throughput_stddev / std::sqrt(2.0) / r.throughput;
  EXPECT_NEAR(r.ci90_rel, expected, 1e-4 * expected);
}

TEST(SweepTest, AutoWarmupResolvesProvenance) {
  const RunScale scale = TinyScale();
  Sweep sweep(scale, /*jobs=*/1);
  sweep.Add(BaseOptions(EpsilonLevel::kHigh, /*mpl=*/2, scale));
  sweep.Run();
  const RunScale& resolved = sweep.scale();
  // The calibration either resolved a truncation point or fell back —
  // both outcomes must be recorded, and warmup can never eat more than
  // half the measurement budget.
  EXPECT_TRUE(resolved.warmup_source == "mser5" ||
              resolved.warmup_source == "preset-fallback")
      << resolved.warmup_source;
  if (resolved.warmup_source == "mser5") {
    EXPECT_LE(resolved.warmup_s, scale.measure_s / 2.0);
    EXPECT_GE(resolved.warmup_s, 0.0);
  } else {
    EXPECT_EQ(resolved.warmup_s, scale.warmup_s);
  }
}

TEST(SweepTest, SeriesExportIsByteIdenticalAcrossJobs) {
  const RunScale scale = TinyScale();
  const auto run_with_jobs = [&](int jobs, const std::string& path) {
    Sweep sweep(scale, jobs);
    for (int mpl = 1; mpl <= 3; ++mpl) {
      sweep.Add(BaseOptions(EpsilonLevel::kHigh, mpl, scale));
    }
    sweep.set_auto_warmup(false);
    sweep.set_series_export(path, "harness_test");
    sweep.Run();
  };
  const std::string serial_path =
      ::testing::TempDir() + "/series_serial.csv";
  const std::string parallel_path =
      ::testing::TempDir() + "/series_parallel.csv";
  run_with_jobs(1, serial_path);
  run_with_jobs(8, parallel_path);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  const std::string serial = slurp(serial_path);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, slurp(parallel_path));

  // The export is a valid series file tagged with the figure source.
  Result<RunSeries> series = ReadSeriesCsvFile(serial_path);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  EXPECT_FALSE(series->windows.empty());
  EXPECT_NE(series->source.find("harness_test"), std::string::npos);
}

TEST(CertifyFromArgsTest, OnlyTheFlagEnables) {
  Argv with_flag({"bin", "--json", "out.json", "--certify"});
  EXPECT_TRUE(CertifyFromArgs(with_flag.argc(), with_flag.argv()));
  Argv no_flag({"bin", "--json", "out.json"});
  EXPECT_FALSE(CertifyFromArgs(no_flag.argc(), no_flag.argv()));
}

#ifndef ESR_TRACE_DISABLED
TEST(SweepTest, CertifyRidesAlongIdenticallyAcrossJobs) {
  const RunScale scale = TinyScale();
  struct Outcome {
    std::string report;
    std::string series;
    StreamCertification certification;
  };
  const auto run_with_jobs = [&](int jobs, const std::string& path) {
    Sweep sweep(scale, jobs);
    for (int mpl = 1; mpl <= 3; ++mpl) {
      sweep.Add(BaseOptions(EpsilonLevel::kHigh, mpl, scale));
    }
    sweep.set_auto_warmup(false);
    sweep.set_series_export(path, "harness_test");
    sweep.set_certify(true);
    sweep.Run();
    Outcome out;
    out.report = ReportJson(sweep, scale, 3);
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    out.series = text.str();
    out.certification = sweep.certification();
    return out;
  };
  const Outcome serial =
      run_with_jobs(1, ::testing::TempDir() + "/certify_serial.csv");
  const Outcome parallel =
      run_with_jobs(8, ::testing::TempDir() + "/certify_parallel.csv");
  GlobalTrace().Reset();

  // Certification rode on the same (last) run either way, so the figure
  // output — report and series alike — stays byte-identical, and both
  // certifier passes saw the identical event stream.
  EXPECT_FALSE(serial.report.empty());
  EXPECT_EQ(serial.report, parallel.report);
  EXPECT_FALSE(serial.series.empty());
  EXPECT_EQ(serial.series, parallel.series);
  ASSERT_TRUE(serial.certification.enabled);
  ASSERT_TRUE(parallel.certification.enabled);
  EXPECT_TRUE(serial.certification.certified());
  EXPECT_GT(serial.certification.walks_replayed, 0u);
  EXPECT_EQ(serial.certification.walks_replayed,
            parallel.certification.walks_replayed);
  EXPECT_EQ(serial.certification.events_observed,
            parallel.certification.events_observed);
  EXPECT_EQ(serial.certification.certified_through_s,
            parallel.certification.certified_through_s);

  // The certified series file carries the watermark column.
  Result<RunSeries> series = ReadSeriesCsvFile(
      ::testing::TempDir() + "/certify_serial.csv");
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  ASSERT_FALSE(series->windows.empty());
  EXPECT_GE(series->windows.back().certified_through_s, 0.0);
}
#endif  // ESR_TRACE_DISABLED

TEST(RunScaleTest, FromEnvAppliesThePresets) {
  ::unsetenv("ESR_BENCH_FULL");
  RunScale quick = RunScale::FromEnv();
  EXPECT_EQ(quick.preset, kQuickScale.name);
  EXPECT_EQ(quick.warmup_s, kQuickScale.warmup_s);
  EXPECT_EQ(quick.measure_s, kQuickScale.measure_s);
  EXPECT_EQ(quick.seeds, kQuickScale.seeds);
  EXPECT_EQ(quick.warmup_source, "preset");

  ::setenv("ESR_BENCH_FULL", "1", /*overwrite=*/1);
  RunScale full = RunScale::FromEnv();
  EXPECT_EQ(full.preset, kFullScale.name);
  EXPECT_EQ(full.warmup_s, kFullScale.warmup_s);
  EXPECT_EQ(full.measure_s, kFullScale.measure_s);
  EXPECT_EQ(full.seeds, kFullScale.seeds);
  ::unsetenv("ESR_BENCH_FULL");
}

TEST(SeriesPathFromArgsTest, OnlyTheFlagSetsThePath) {
  Argv args({"bin", "--series", "flag.csv"});
  EXPECT_EQ(SeriesPathFromArgs(args.argc(), args.argv()), "flag.csv");
  Argv no_flag({"bin"});
  EXPECT_EQ(SeriesPathFromArgs(no_flag.argc(), no_flag.argv()), "");
}

TEST(TableTest, NumCiFormatsAndFlagsWidePoints) {
  EXPECT_EQ(Table::NumCi(12.3456, 0.012), "12.35 ±1.2%");
  // Above the paper's +/-3% budget: a trailing '!' marks the point.
  EXPECT_EQ(Table::NumCi(100.0, 0.199, /*precision=*/1), "100.0 ±19.9%!");
  // Exactly at the threshold is within budget.
  EXPECT_EQ(Table::NumCi(1.0, Table::kCiFlagThreshold, 0), "1 ±3.0%");
  // Single-seed runs have no interval.
  EXPECT_EQ(Table::NumCi(5.0, 0.0), "5.00 ±0.0%");
}

}  // namespace
}  // namespace bench
}  // namespace esr
