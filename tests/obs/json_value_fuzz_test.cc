// Robustness tests for the JSON reader every tool input goes through:
// random bytes, random token soup, byte mutations and every truncation of
// an enveloped bench report must parse or return an error (never crash or
// hang), and nesting past kMaxJsonDepth is an error, not a stack
// overflow.

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "obs/json_value.h"

namespace esr {
namespace {

// One fig07 point of a bench --json report wrapped in a provenance
// envelope: envelope > report > series > rows > row > latency_ms, six
// levels deep.
const char kEnvelope[] =
    "{\n  \"registered\": {\"figure\": \"fig07_throughput_vs_mpl\", "
    "\"git_sha\": \"unknown\", \"preset\": \"quick\", \"jobs\": 4, "
    "\"recorded_unix\": 1792261919},\n  \"report\": "
    "{\"figure\":\"fig07_throughput_vs_mpl\",\"scale\":{\"warmup_s\":1,"
    "\"measure_s\":60,\"seeds\":5,\"preset\":\"quick\",\"warmup_source\":"
    "\"mser5\",\"mser_raw_truncation_s\":0,\"mser_statistic\":"
    "0.68672000000000699},\"series\":{\"medium\":[{\"x\":8,\"throughput\":"
    "12.476666666666667,\"throughput_stddev\":0.5765895251327093,"
    "\"ci90_rel\":0.044300898412530284,\"committed\":748.60000000000002,"
    "\"aborts\":503.39999999999998,\"latency_ms\":{\"count\":3743,\"mean\":"
    "597.35,\"min\":93.7,\"max\":6473.1,\"stddev\":700.2,\"p50\":386.0,"
    "\"p90\":1395.2,\"p99\":3505.4,\"p999\":5530.1}}]}}\n}\n";

TEST(JsonFuzzTest, EnvelopeParses) {
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(kEnvelope, &root, &error)) << error;
  const JsonValue* rows = root.Find("report")->Find("series")->Find("medium");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 1u);
  EXPECT_DOUBLE_EQ(rows->array[0].NumberOr("x", 0.0), 8.0);
}

TEST(JsonFuzzTest, RandomBytesNeverCrash) {
  Rng rng(2026);
  for (int round = 0; round < 2000; ++round) {
    std::string garbage;
    const int64_t length = rng.UniformInt(0, 200);
    for (int64_t i = 0; i < length; ++i) {
      garbage += static_cast<char>(rng.UniformInt(0, 255));
    }
    JsonValue root;
    std::string error;
    if (!ParseJson(garbage, &root, &error)) {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(JsonFuzzTest, RandomTokenSoupNeverCrashes) {
  const char* tokens[] = {"{",     "}",      "[",     "]",       ",",
                          ":",     "\"k\"",  "\"\\u00e9\"", "\"\\q\"", "\"",
                          "0",     "-2.5e3", "1e",    "--1",     "true",
                          "false", "null",   "nul",   " ",       "\n"};
  constexpr int64_t kTokens = sizeof(tokens) / sizeof(tokens[0]);
  Rng rng(77);
  for (int round = 0; round < 2000; ++round) {
    std::string soup;
    const int64_t length = rng.UniformInt(1, 80);
    for (int64_t i = 0; i < length; ++i) {
      soup += tokens[rng.UniformInt(0, kTokens - 1)];
    }
    JsonValue root;
    (void)ParseJson(soup, &root);
  }
}

TEST(JsonFuzzTest, MutatedEnvelopesNeverCrash) {
  const std::string envelope = kEnvelope;
  Rng rng(1993);
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = envelope;
    const int64_t flips = rng.UniformInt(1, 4);
    for (int64_t f = 0; f < flips; ++f) {
      const auto at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[at] = static_cast<char>(rng.UniformInt(0, 255));
    }
    JsonValue root;
    (void)ParseJson(mutated, &root);
  }
}

TEST(JsonFuzzTest, EveryTruncationOfAnEnvelopeIsAnError) {
  const std::string envelope = kEnvelope;
  const size_t closed = envelope.rfind('}') + 1;
  for (size_t cut = 0; cut < envelope.size(); ++cut) {
    JsonValue root;
    std::string error;
    const bool ok = ParseJson(envelope.substr(0, cut), &root, &error);
    // Only cutting trailing whitespace after the final '}' leaves a
    // complete document.
    EXPECT_EQ(ok, cut >= closed) << "cut=" << cut;
    if (!ok) {
      EXPECT_FALSE(error.empty()) << "cut=" << cut;
    }
  }
}

TEST(JsonFuzzTest, NestingIsCappedAtMaxDepth) {
  auto nested = [](int depth, const char* open, const char* close) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += open;
    text += "0";
    for (int i = 0; i < depth; ++i) text += close;
    return text;
  };
  JsonValue root;
  std::string error;
  EXPECT_TRUE(ParseJson(nested(kMaxJsonDepth, "[", "]"), &root, &error))
      << error;
  EXPECT_TRUE(ParseJson(nested(kMaxJsonDepth, "{\"a\":", "}"), &root));
  EXPECT_FALSE(ParseJson(nested(kMaxJsonDepth + 1, "[", "]"), &root, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  EXPECT_FALSE(ParseJson(nested(kMaxJsonDepth + 1, "{\"a\":", "}"), &root));
  // The hostile shape: a deep unterminated prefix far past the cap.
  EXPECT_FALSE(ParseJson(std::string(200000, '['), &root, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  // Depth is per path, not cumulative: many shallow siblings are fine.
  std::string siblings = "[";
  for (int i = 0; i < 1000; ++i) siblings += i == 0 ? "[[0]]" : ",[[0]]";
  EXPECT_TRUE(ParseJson(siblings + "]", &root));
}

}  // namespace
}  // namespace esr
