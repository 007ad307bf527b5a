#include "obs/exporter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/metrics.h"
#include "obs/json_value.h"

namespace esr {
namespace {

TEST(JsonWriterTest, WritesNestedStructures) {
  std::ostringstream out;
  JsonWriter w(out);
  w.BeginObject();
  w.KV("name", "run");
  w.Key("points");
  w.BeginArray();
  w.Value(static_cast<int64_t>(1));
  w.Value(2.5);
  w.Value(true);
  w.Null();
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.KV("x", static_cast<int64_t>(-3));
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(out.str(),
            "{\"name\":\"run\",\"points\":[1,2.5,true,null],"
            "\"nested\":{\"x\":-3}}");

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(out.str(), &root, &error)) << error;
  EXPECT_EQ(root.Find("points")->array.size(), 4u);
}

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(JsonWriter::Escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonWriter::Escape(std::string(1, '\x01')), "\\u0001");

  std::ostringstream out;
  JsonWriter w(out);
  w.BeginObject();
  w.KV("key \"q\"", "line1\nline2");
  w.EndObject();
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(out.str(), &root, &error)) << error;
  const JsonValue* v = root.Find("key \"q\"");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->string, "line1\nline2");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  std::ostringstream out;
  JsonWriter w(out);
  w.BeginArray();
  w.Value(std::nan(""));
  w.Value(std::numeric_limits<double>::infinity());
  w.Value(1.0);
  w.EndArray();
  EXPECT_EQ(out.str(), "[null,null,1]");
}

TEST(MetricsJsonTest, ExportsCountersAndHistogramSummaries) {
  MetricRegistry reg;
  reg.counter("txn.commit").Increment(12);
  reg.counter("txn.abort").Increment(3);
  for (int i = 1; i <= 100; ++i) {
    reg.histogram("latency_ms").Record(static_cast<double>(i));
  }

  std::ostringstream out;
  WriteMetricsJson(reg, out);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(out.str(), &root, &error)) << error;
  const JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("txn.commit"), nullptr);
  EXPECT_EQ(counters->Find("txn.commit")->number, 12.0);
  EXPECT_EQ(counters->Find("txn.abort")->number, 3.0);

  const JsonValue* histograms = root.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* latency = histograms->Find("latency_ms");
  ASSERT_NE(latency, nullptr);
  for (const char* key :
       {"count", "mean", "min", "max", "stddev", "p50", "p90", "p99",
        "p999"}) {
    ASSERT_NE(latency->Find(key), nullptr) << key;
    EXPECT_TRUE(latency->Find(key)->is_number()) << key;
  }
  EXPECT_EQ(latency->Find("count")->number, 100.0);
  EXPECT_DOUBLE_EQ(latency->Find("mean")->number, 50.5);
  EXPECT_EQ(latency->Find("min")->number, 1.0);
  EXPECT_EQ(latency->Find("max")->number, 100.0);
  EXPECT_NEAR(latency->Find("p50")->number, 50.5, 5.0);
}

TEST(MetricsJsonTest, EmptyRegistryIsStillValidJson) {
  MetricRegistry reg;
  std::ostringstream out;
  WriteMetricsJson(reg, out);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(out.str(), &root, &error)) << error;
  EXPECT_TRUE(root.Find("counters")->object.empty());
  EXPECT_TRUE(root.Find("histograms")->object.empty());
}

TEST(MetricsExportFileTest, JsonRoundTripsThroughDisk) {
  MetricRegistry reg;
  reg.counter("c").Increment(5);
  reg.histogram("h").Record(1.5);

  const std::string json_path =
      ::testing::TempDir() + "/esr_exporter_test_metrics.json";
  ASSERT_TRUE(ExportMetricsJsonToFile(reg, json_path).ok());
  std::ifstream json_in(json_path);
  std::stringstream json_buf;
  json_buf << json_in.rdbuf();
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(json_buf.str(), &root, &error)) << error;
  EXPECT_EQ(root.Find("counters")->Find("c")->number, 5.0);
}

TEST(MetricsExportFileTest, BadPathReturnsError) {
  MetricRegistry reg;
  EXPECT_FALSE(ExportMetricsJsonToFile(reg, "/nonexistent-dir/m.json").ok());
}

}  // namespace
}  // namespace esr
