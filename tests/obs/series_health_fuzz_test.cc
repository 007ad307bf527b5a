// Robustness tests for the two readers of run telemetry, ReadSeriesCsv
// (`esr series`, `esr health <series.csv>`) and ReadHealthJson
// (`esr health --journal`): random bytes, byte mutations and every
// truncation of a real export must end in an InvalidArgument status or
// in a parsed value that the tools' own consumers (summary, health
// analysis, text and JSON writers) process to the end — never a crash, a
// hang or undefined behaviour under the sanitizers.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "obs/health.h"
#include "obs/series.h"

namespace esr {
namespace {

std::string SeriesExport(const RunSeries& series) {
  std::ostringstream out;
  WriteSeriesCsv(series, out);
  return out.str();
}

std::string JournalExport(const RunSeries& series) {
  std::ostringstream out;
  WriteHealthJson(AnalyzeSeries(series), out);
  return out.str();
}

// Drives one input through what `esr series` and `esr health` do with a
// series file. Returns true when the reader accepted it.
bool SeriesToAnEnd(const std::string& input) {
  std::istringstream in(input);
  Result<RunSeries> read = ReadSeriesCsv(in);
  if (!read.ok()) {
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(read.status().message().empty());
    return false;
  }
  std::ostringstream sink;
  WriteSeriesSummaryJson(SummarizeSeries(read.value()), sink);
  const HealthReport report = AnalyzeSeries(read.value());
  WriteHealthJson(report, sink);
  WriteHealthText(report, sink);
  return true;
}

// Drives one input through `esr health --journal`, then checks the
// accepted journal survives its own round trip.
bool JournalToAnEnd(const std::string& input) {
  std::istringstream in(input);
  Result<HealthReport> read = ReadHealthJson(in);
  if (!read.ok()) {
    EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(read.status().message().empty());
    return false;
  }
  std::ostringstream text;
  WriteHealthText(read.value(), text);
  std::ostringstream json;
  WriteHealthJson(read.value(), json);
  std::istringstream again(json.str());
  EXPECT_TRUE(ReadHealthJson(again).ok()) << json.str();
  return true;
}

std::string RandomBytes(Rng& rng, int64_t max_length) {
  std::string bytes;
  const int64_t length = rng.UniformInt(0, max_length);
  for (int64_t i = 0; i < length; ++i) {
    bytes += static_cast<char>(rng.UniformInt(0, 255));
  }
  return bytes;
}

std::string Mutate(const std::string& input, Rng& rng) {
  std::string mutated = input;
  const int64_t flips = rng.UniformInt(1, 4);
  for (int64_t f = 0; f < flips; ++f) {
    const auto at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
    mutated[at] = static_cast<char>(rng.UniformInt(0, 255));
  }
  return mutated;
}

// Keeps the readers' and the health engine's log lines off the test log.
class SeriesHealthFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_ = SetLogSink(&sink_);
    // Real exports: a series with per-node rows and a headroom violation,
    // and journals with several alerts each.
    series_ = {SeriesExport(BuildDemoSeries(/*with_violation=*/true)),
               SeriesExport(BuildLivelockDemoSeries())};
    journals_ = {JournalExport(BuildLivelockDemoSeries()),
                 JournalExport(BuildBistableDemoSeries()),
                 JournalExport(BuildDemoSeries(/*with_violation=*/true))};
  }
  void TearDown() override { SetLogSink(previous_); }

  std::vector<std::string> series_;
  std::vector<std::string> journals_;

 private:
  class DiscardSink : public LogSink {
   public:
    void Write(const LogRecord&) override {}
  };
  DiscardSink sink_;
  LogSink* previous_ = nullptr;
};

constexpr int kRounds = 1000;

TEST_F(SeriesHealthFuzzTest, RealExportsReadBack) {
  for (const std::string& csv : series_) EXPECT_TRUE(SeriesToAnEnd(csv));
  for (const std::string& json : journals_) {
    EXPECT_TRUE(JournalToAnEnd(json)) << json;
  }
}

// Found by the mutation fuzzer: a journal's window indices and shard were
// cast straight from the JSON double to size_t/int, so a mutated
// "first_window":-8 was undefined behaviour (UBSan float-cast-overflow).
TEST_F(SeriesHealthFuzzTest, JournalIntegersOutOfRangeAreRejected) {
  const auto journal = [](const std::string& windows,
                          const std::string& alert_fields) {
    return "{\"health\":{\"window_s\":1,\"windows\":" + windows +
           ",\"alerts\":[{\"detector\":\"abort_livelock\"," + alert_fields +
           "}]}}";
  };
  EXPECT_TRUE(JournalToAnEnd(journal(
      "40", "\"first_window\":12,\"last_window\":25,\"shard\":-1")));
  for (const char* fields :
       {"\"first_window\":-8", "\"last_window\":1e999",
        "\"first_window\":2.5", "\"shard\":-2", "\"shard\":1e10",
        "\"shard\":-1e999"}) {
    EXPECT_FALSE(JournalToAnEnd(journal("40", fields))) << fields;
  }
  for (const char* windows : {"-1", "1e999", "0.5"}) {
    EXPECT_FALSE(JournalToAnEnd(journal(windows, "\"shard\":0"))) << windows;
  }
}

TEST_F(SeriesHealthFuzzTest, RandomBytesEndInAnErrorOrAValue) {
  Rng rng(97);
  for (int round = 0; round < kRounds; ++round) {
    SeriesToAnEnd(RandomBytes(rng, 200));
    // A valid header first, so the row parser sees the garbage too.
    SeriesToAnEnd(series_[0].substr(0, series_[0].find('\n', 40) + 1) +
                  RandomBytes(rng, 200));
    JournalToAnEnd(RandomBytes(rng, 200));
    JournalToAnEnd("{\"health\":{" + RandomBytes(rng, 200));
  }
}

TEST_F(SeriesHealthFuzzTest, MutatedExportsEndInAnErrorOrAValue) {
  Rng rng(1993);
  size_t series_read = 0;
  size_t journals_read = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& csv : series_) {
      if (SeriesToAnEnd(Mutate(csv, rng))) ++series_read;
    }
    for (const std::string& json : journals_) {
      if (JournalToAnEnd(Mutate(json, rng))) ++journals_read;
    }
  }
  // Some mutations land where the reader still accepts the file, so the
  // consumers downstream of it are under test too.
  EXPECT_GT(series_read, 0u);
  EXPECT_GT(journals_read, 0u);
}

TEST_F(SeriesHealthFuzzTest, EveryTruncationEndsInAnErrorOrAValue) {
  for (const std::string& csv : series_) {
    for (size_t cut = 0; cut <= csv.size(); ++cut) {
      SeriesToAnEnd(csv.substr(0, cut));
    }
  }
  for (const std::string& json : journals_) {
    size_t read = 0;
    for (size_t cut = 0; cut <= json.size(); ++cut) {
      if (JournalToAnEnd(json.substr(0, cut))) ++read;
    }
    // Only the whole document (perhaps minus trailing whitespace) parses.
    EXPECT_GE(read, 1u);
    EXPECT_LE(read, 2u);
  }
}

}  // namespace
}  // namespace esr
