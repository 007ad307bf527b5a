// Robustness tests for the one audit path, ReadChromeTrace -> AuditTrace
// -> HuntPerturbations: random bytes, byte mutations and every truncation
// of an exported capture of the demo-violation history must end in an
// error status or a verdict (never a crash, a hang or undefined behaviour
// under the sanitizers). Integer fields that do not fit their type are
// errors naming the field, and timestamps at the edge of int64_t audit and
// hunt without overflowing.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "obs/audit.h"
#include "obs/stream_audit.h"
#include "obs/trace.h"
#include "obs/trace_reader.h"
#include "testing/trace_history.h"

namespace esr {
namespace {

std::string DemoCapture() {
  const std::vector<TraceEvent> events = testing::DemoViolationHistory();
  std::ostringstream out;
  WriteChromeTraceEvents(events, out, events.size(), /*dropped=*/0,
                         /*capacity=*/1024);
  return out.str();
}

// Drives one input through the audit path. Returns true when it reached a
// verdict, false when the reader rejected it.
bool AuditsToAnEnd(const std::string& input) {
  std::vector<TraceEvent> events;
  TraceMetadata metadata;
  const Status status = ReadChromeTrace(input, &events, &metadata);
  if (!status.ok()) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(status.message().empty());
    return false;
  }
  const AuditReport report = AuditTrace(events, metadata);
  EXPECT_EQ(report.num_events, events.size());
  const PerturbReport hunt = HuntPerturbations(
      events, /*n=*/2, /*base_seed=*/1, report.certification.window_s);
  EXPECT_EQ(hunt.schedules, 2u);
  EXPECT_LE(hunt.violating, 2u);
  return true;
}

// Keeps the reader's truncation and wraparound warnings off the test log.
class TraceReaderFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_ = SetLogSink(&sink_); }
  void TearDown() override { SetLogSink(previous_); }

 private:
  class DiscardSink : public LogSink {
   public:
    void Write(const LogRecord&) override {}
  };
  DiscardSink sink_;
  LogSink* previous_ = nullptr;
};

TEST_F(TraceReaderFuzzTest, DemoCaptureAuditsToTheInjectedViolation) {
  std::vector<TraceEvent> events;
  ASSERT_TRUE(ReadChromeTrace(DemoCapture(), &events).ok());
  const AuditReport report = AuditTrace(events);
  ASSERT_EQ(report.certification.violations.size(), 1u);
  EXPECT_EQ(report.certification.violations.front().group, 5u);
  EXPECT_EQ(HuntPerturbations(events, 2, 1, 1.0).violating, 2u);
}

TEST_F(TraceReaderFuzzTest, RandomBytesEndInAnErrorOrAVerdict) {
  Rng rng(2024);
  for (int round = 0; round < 2000; ++round) {
    std::string garbage;
    const int64_t length = rng.UniformInt(0, 200);
    for (int64_t i = 0; i < length; ++i) {
      garbage += static_cast<char>(rng.UniformInt(0, 255));
    }
    AuditsToAnEnd(garbage);
  }
}

TEST_F(TraceReaderFuzzTest, MutatedCapturesEndInAnErrorOrAVerdict) {
  const std::string capture = DemoCapture();
  Rng rng(1993);
  size_t verdicts = 0;
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = capture;
    const int64_t flips = rng.UniformInt(1, 4);
    for (int64_t f = 0; f < flips; ++f) {
      const auto at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[at] = static_cast<char>(rng.UniformInt(0, 255));
    }
    if (AuditsToAnEnd(mutated)) ++verdicts;
  }
  // Most mutations land in a string or salvage a prefix: the audit
  // itself, not only the reader, is under test.
  EXPECT_GT(verdicts, 100u);
}

TEST_F(TraceReaderFuzzTest, EveryTruncationEndsInAnErrorOrAVerdict) {
  const std::string capture = DemoCapture();
  size_t verdicts = 0;
  for (size_t cut = 0; cut <= capture.size(); ++cut) {
    if (AuditsToAnEnd(capture.substr(0, cut))) ++verdicts;
  }
  EXPECT_GT(verdicts, capture.size() / 2);
}

// One BoundCheck instant with `field` set to `value`, at the top level or
// in args; the other fields keep small in-range values.
std::string TraceWith(const std::string& field, const std::string& value,
                      bool in_args) {
  std::map<std::string, std::string> top = {
      {"ts", "1"}, {"pid", "1"}, {"tid", "7"}};
  std::map<std::string, std::string> args = {
      {"target", "0"}, {"level", "1"}, {"detail", "1"}};
  (in_args ? args : top)[field] = value;
  auto members = [](const std::map<std::string, std::string>& fields) {
    std::string out;
    for (const auto& [key, number] : fields) {
      out += ",\"" + key + "\":" + number;
    }
    return out;
  };
  return "{\"traceEvents\":[{\"name\":\"BoundCheck\",\"ph\":\"i\"" +
         members(top) + ",\"args\":{" + members(args).substr(1) + "}}]}";
}

TEST(TraceReaderRangeTest, RejectsIntegersThatDoNotFitTheirField) {
  struct Case {
    const char* field;
    const char* value;
    bool in_args;
  };
  const Case cases[] = {
      {"ts", "1e300", false},      {"ts", "-1e19", false},
      {"tid", "-1", false},        {"tid", "1e20", false},
      {"level", "65536", true},    {"level", "-3", true},
      {"target", "1e20", true},    {"target", "-0.5", true},
      {"detail", "256", true},     {"pid", "1e10", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.field) + " = " + c.value);
    std::vector<TraceEvent> events;
    const Status status =
        ReadChromeTrace(TraceWith(c.field, c.value, c.in_args), &events);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("\"" + std::string(c.field) + "\""),
              std::string::npos)
        << status.ToString();
  }
}

TEST(TraceReaderRangeTest, AcceptsEachFieldsExtremes) {
  std::vector<TraceEvent> events;
  ASSERT_TRUE(
      ReadChromeTrace(TraceWith("ts", "-9223372036854775808", false), &events)
          .ok());
  EXPECT_EQ(events.at(0).ts_micros, std::numeric_limits<int64_t>::min());
  ASSERT_TRUE(ReadChromeTrace(TraceWith("level", "65535", true), &events).ok());
  EXPECT_EQ(events.at(0).level, 65535);
  // A full 64-bit id reads back rounded up to 2^64 and clamps.
  ASSERT_TRUE(
      ReadChromeTrace(TraceWith("target", "18446744073709551615", true),
                      &events)
          .ok());
  EXPECT_EQ(events.at(0).target, std::numeric_limits<uint64_t>::max());
  // Fractional microseconds truncate, as they always have.
  ASSERT_TRUE(ReadChromeTrace(TraceWith("ts", "1021.75", false), &events).ok());
  EXPECT_EQ(events.at(0).ts_micros, 1021);
}

TEST(TraceReaderRangeTest, OutOfRangeOtherDataIsRejected) {
  std::vector<TraceEvent> events;
  TraceMetadata metadata;
  const Status status = ReadChromeTrace(
      "{\"traceEvents\":[],\"otherData\":{\"dropped\":-5}}", &events,
      &metadata);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("\"dropped\""), std::string::npos);
}

TEST(TraceReaderRangeTest, SpansAcrossTheInt64RangeAuditWithoutOverflow) {
  // One committed transaction whose txn, rpc and op spans, and the wait
  // before its retry, run from -9e18 to +9e18 us: both ends fit int64_t,
  // their difference does not, so span lengths and the critical-path sums
  // built from them must saturate.
  constexpr int64_t kFar = 9'000'000'000'000'000'000;
  std::vector<TraceEvent> events;
  auto at = [&events](int64_t ts, TraceEvent e) {
    e.ts_micros = ts;
    events.push_back(e);
  };
  at(-kFar, TraceEvent::BeginTxn(1, TxnType::kUpdate, 1));
  at(-kFar, TraceEvent::SpanBeginEvent(SpanKind::kTxn, 10, 0, 1, 1, 0));
  at(-kFar, TraceEvent::SpanBeginEvent(SpanKind::kRpc, 11, 10, 1, 1, 0));
  at(-kFar, TraceEvent::SpanBeginEvent(SpanKind::kOp, 12, 11, 1, 1, 7));
  at(-kFar, TraceEvent::WaitOn(1, 1, 7, /*writer=*/2));
  at(kFar, TraceEvent::SpanEndEvent(SpanKind::kOp, 12, 1, 1));
  at(kFar, TraceEvent::SpanEndEvent(SpanKind::kRpc, 11, 1, 1));
  at(kFar, TraceEvent::SpanBeginEvent(SpanKind::kRpc, 13, 10, 1, 1, 0));
  at(kFar, TraceEvent::SpanEndEvent(SpanKind::kRpc, 13, 1, 1));
  at(kFar, TraceEvent::CommitTxn(1, 1));
  at(kFar, TraceEvent::SpanEndEvent(SpanKind::kTxn, 10, 1, 1));
  std::ostringstream out;
  WriteChromeTraceEvents(events, out, events.size(), /*dropped=*/0,
                         /*capacity=*/1024);
  const std::string json = out.str();
  ASSERT_NE(json.find("\"ts\":-9000000000000000000"), std::string::npos);
  ASSERT_NE(json.find("\"ts\":9000000000000000000"), std::string::npos);

  std::vector<TraceEvent> read;
  ASSERT_TRUE(ReadChromeTrace(json, &read).ok());
  const AuditReport report = AuditTrace(read);
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  ASSERT_EQ(report.breakdowns.size(), 1u);
  const TxnBreakdown& b = report.breakdowns[0];
  EXPECT_EQ(b.total_micros, kMax);
  EXPECT_EQ(b.service_micros, kMax);
  EXPECT_EQ(b.conflict_wait_micros, kMax);
  EXPECT_EQ(b.other_micros, 0);
  ASSERT_EQ(report.blockers.size(), 1u);
  EXPECT_EQ(report.blockers[0].total_wait_micros, kMax);
  EXPECT_TRUE(AuditsToAnEnd(json));
}

TEST(TraceReaderRangeTest, TimestampsNearInt64MaxHuntWithoutOverflow) {
  // 2^63 - 1024 is exactly representable as a double, so it fits "ts";
  // the hunt's horizon and jitter adds must saturate, not overflow, and a
  // lost prefix must round its certified-from edge without overflowing.
  const std::string kNearMax = "9223372036854774784";
  const std::string json =
      "{\"traceEvents\":[\n"
      "  {\"name\":\"Begin\",\"ph\":\"i\",\"ts\":" + kNearMax +
      ",\"pid\":1,\"tid\":7},\n"
      "  {\"name\":\"Begin\",\"ph\":\"i\",\"ts\":" + kNearMax +
      ",\"pid\":2,\"tid\":8},\n"
      "  {\"name\":\"Commit\",\"ph\":\"i\",\"ts\":" + kNearMax +
      ",\"pid\":1,\"tid\":7}\n"
      "],\"otherData\":{\"recorded\":8,\"dropped\":5,\"capacity\":3}}\n";
  std::vector<TraceEvent> events;
  TraceMetadata metadata;
  CapturingLogSink sink;
  LogSink* previous = SetLogSink(&sink);
  const Status status = ReadChromeTrace(json, &events, &metadata);
  SetLogSink(previous);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ts_micros, std::numeric_limits<int64_t>::max() - 1023);

  const AuditReport report = AuditTrace(events, metadata);
  EXPECT_TRUE(report.certified());
  const PerturbReport hunt =
      HuntPerturbations(events, /*n=*/1, /*base_seed=*/1, 1.0);
  EXPECT_EQ(hunt.violating, 0u);

  PerturbOptions options;
  options.jitter_micros = 5'000;
  const std::vector<TraceEvent> perturbed = PerturbSchedule(events, options);
  ASSERT_EQ(perturbed.size(), events.size());
  for (const TraceEvent& e : perturbed) {
    EXPECT_GE(e.ts_micros, events[0].ts_micros);
  }
}

}  // namespace
}  // namespace esr
