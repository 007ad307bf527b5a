// Prometheus text exposition and the minimal /metrics HTTP endpoint:
// format conformance, name sanitization, and a real scrape over a
// loopback socket.

#include "obs/prometheus.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "obs/exporter.h"

namespace esr {
namespace {

TEST(PrometheusNameTest, SanitizesDisallowedCharacters) {
  EXPECT_EQ(PrometheusMetricName("txn.commit"), "esr_txn_commit");
  EXPECT_EQ(PrometheusMetricName("client.txn_latency-ms"),
            "esr_client_txn_latency_ms");
  EXPECT_EQ(PrometheusMetricName("plain"), "esr_plain");
  EXPECT_EQ(PrometheusMetricName("weird name!"), "esr_weird_name_");
}

TEST(PrometheusTextTest, WritesCountersWithTypeAndTotalSuffix) {
  MetricRegistry reg;
  reg.counter("txn.commit").Increment(12);

  std::ostringstream out;
  WritePrometheusText(reg, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE esr_txn_commit_total counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("esr_txn_commit_total 12\n"), std::string::npos)
      << text;
}

TEST(PrometheusTextTest, EveryFamilyCarriesHelpBeforeType) {
  MetricRegistry reg;
  reg.counter("txn.commit").Increment();
  reg.gauge("certified_through_seconds").Set(12.0);
  reg.gauge("certification_lag_windows").Set(0.0);
  reg.gauge("headroom.min_frac").Set(0.4);
  reg.gauge("headroom.min_frac.branch_0").Set(0.4);
  reg.histogram("latency").Record(1.0);

  std::ostringstream out;
  WritePrometheusText(reg, out);
  const std::string text = out.str();

  // Generic per-kind fallbacks.
  EXPECT_NE(text.find("# HELP esr_txn_commit_total Monotonic count of "
                      "txn.commit events.\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP esr_latency Distribution of latency "
                      "samples.\n"),
            std::string::npos)
      << text;
  // Documented families get specific help text.
  EXPECT_NE(text.find("# HELP esr_certified_through_seconds "
                      "Streaming-certification watermark"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP esr_certification_lag_windows "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP esr_headroom_min_frac Tightest epsilon "
                      "headroom across all hierarchy nodes"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP esr_headroom_min_frac_branch_0 Tightest "
                      "epsilon headroom of hierarchy node 'branch_0'"),
            std::string::npos)
      << text;

  // HELP precedes TYPE for every family (text-format convention).
  size_t pos = 0;
  int families = 0;
  while ((pos = text.find("# TYPE ", pos)) != std::string::npos) {
    const size_t name_start = pos + std::strlen("# TYPE ");
    const size_t name_end = text.find(' ', name_start);
    const std::string family = text.substr(name_start, name_end - name_start);
    const size_t help = text.find("# HELP " + family + " ");
    EXPECT_NE(help, std::string::npos) << family << " has no HELP:\n" << text;
    EXPECT_LT(help, pos) << family << " HELP must precede TYPE:\n" << text;
    ++families;
    pos = name_end;
  }
  EXPECT_EQ(families, 6) << text;
}

TEST(PrometheusTextTest, WritesHistogramsAsSummaries) {
  MetricRegistry reg;
  for (int i = 1; i <= 4; ++i) {
    reg.histogram("latency").Record(static_cast<double>(i));
  }

  std::ostringstream out;
  WritePrometheusText(reg, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE esr_latency summary\n"), std::string::npos);
  for (const char* q : {"0.5", "0.9", "0.99", "0.999"}) {
    EXPECT_NE(text.find("esr_latency{quantile=\"" + std::string(q) + "\"}"),
              std::string::npos)
        << q << " missing in:\n"
        << text;
  }
  // _sum is mean * count = 2.5 * 4; _count is the sample count.
  EXPECT_NE(text.find("esr_latency_sum 10\n"), std::string::npos) << text;
  EXPECT_NE(text.find("esr_latency_count 4\n"), std::string::npos) << text;
}

TEST(PrometheusTextTest, EmptyRegistryProducesEmptyExposition) {
  MetricRegistry reg;
  std::ostringstream out;
  WritePrometheusText(reg, out);
  EXPECT_TRUE(out.str().empty());
}

TEST(PrometheusTextTest, PromotesShardGaugesToLabeledFamilies) {
  MetricRegistry reg;
  // Registered out of numeric order, plus a two-digit shard: the label
  // values must come out sorted numerically (2 < 10), not as strings.
  reg.gauge("engine.shard10.ops").Set(111.0);
  reg.gauge("engine.shard2.ops").Set(7.0);
  reg.gauge("engine.shard2.waits").Set(3.0);
  reg.gauge("engine.shards").Set(12.0);  // not per-shard; stays dotted

  std::ostringstream out;
  WritePrometheusText(reg, out);
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE esr_shard_ops gauge\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP esr_shard_ops Per-shard ops"),
            std::string::npos)
      << text;
  const size_t s2 = text.find("esr_shard_ops{shard=\"2\"} 7\n");
  const size_t s10 = text.find("esr_shard_ops{shard=\"10\"} 111\n");
  ASSERT_NE(s2, std::string::npos) << text;
  ASSERT_NE(s10, std::string::npos) << text;
  EXPECT_LT(s2, s10) << "shards must sort numerically:\n" << text;
  EXPECT_NE(text.find("esr_shard_waits{shard=\"2\"} 3\n"),
            std::string::npos)
      << text;

  // The per-shard dotted spellings vanish from the text exposition ...
  EXPECT_EQ(text.find("esr_engine_shard2_ops"), std::string::npos) << text;
  // ... while non-per-shard engine gauges keep their dotted-derived name.
  EXPECT_NE(text.find("esr_engine_shards 12\n"), std::string::npos) << text;
}

TEST(PrometheusTextTest, PromotesAlertGaugesToDetectorLabels) {
  MetricRegistry reg;
  reg.gauge("alert.count").Set(2.0);
  reg.gauge("alert.active.abort_livelock").Set(1.0);
  reg.gauge("alert.active.shard_imbalance").Set(0.0);

  std::ostringstream out;
  WritePrometheusText(reg, out);
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE esr_alert_active gauge\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("esr_alert_active{detector=\"abort_livelock\"} 1\n"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("esr_alert_active{detector=\"shard_imbalance\"} 0\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("esr_alert_count 2\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("esr_alert_active_abort_livelock"),
            std::string::npos)
      << text;
}

TEST(PrometheusTextTest, DottedShardNamesStayCanonicalInJson) {
  // The label promotion is a text-exposition concern only: the JSON
  // exporter (and FindGauge lookups) keep the dotted spellings, so
  // recorded artifacts stay byte-compatible across the change.
  MetricRegistry reg;
  reg.gauge("engine.shard3.ops").Set(42.0);
  reg.gauge("alert.active.abort_livelock").Set(1.0);

  std::ostringstream json;
  WriteMetricsJson(reg, json);
  EXPECT_NE(json.str().find("\"engine.shard3.ops\""), std::string::npos)
      << json.str();
  EXPECT_NE(json.str().find("\"alert.active.abort_livelock\""),
            std::string::npos)
      << json.str();
}

// Blocking one-shot HTTP GET against 127.0.0.1:port; empty on failure.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t w =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (w <= 0) break;
    sent += static_cast<size_t>(w);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttpServerTest, ServesScrapeOnEphemeralPort) {
  MetricRegistry reg;
  reg.counter("scrapes").Increment(3);
  MetricsHttpServer server([&reg] {
    std::ostringstream out;
    WritePrometheusText(reg, out);
    return out.str();
  });
  ASSERT_TRUE(server.Start(/*port=*/0).ok());
  ASSERT_NE(server.port(), 0);
  EXPECT_TRUE(server.running());

  const std::string response = HttpGet(server.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos)
      << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos)
      << response;
  EXPECT_NE(response.find("esr_scrapes_total 3"), std::string::npos)
      << response;

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(MetricsHttpServerTest, UnknownPathIs404) {
  MetricsHttpServer server([] { return std::string("body\n"); });
  ASSERT_TRUE(server.Start(0).ok());
  const std::string response = HttpGet(server.port(), "/other");
  EXPECT_NE(response.find("404 Not Found"), std::string::npos) << response;
  // Root serves the same body as /metrics for curl convenience.
  const std::string root = HttpGet(server.port(), "/");
  EXPECT_NE(root.find("200 OK"), std::string::npos) << root;
}

TEST(MetricsHttpServerTest, RendersLiveValuesPerScrape) {
  MetricRegistry reg;
  MetricsHttpServer server([&reg] {
    std::ostringstream out;
    WritePrometheusText(reg, out);
    return out.str();
  });
  ASSERT_TRUE(server.Start(0).ok());
  reg.counter("ticks").Increment();
  EXPECT_NE(HttpGet(server.port(), "/metrics").find("esr_ticks_total 1"),
            std::string::npos);
  reg.counter("ticks").Increment();
  EXPECT_NE(HttpGet(server.port(), "/metrics").find("esr_ticks_total 2"),
            std::string::npos);
}

TEST(MetricsHttpServerTest, ServesConcurrentScrapes) {
  // A deliberately slow render keeps the first scrape in flight while
  // the second one arrives; both must complete with full bodies and
  // renders must stay serialized (the callback is not reentrant-safe).
  std::atomic<int> renders{0};
  MetricsHttpServer server([&renders] {
    renders.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return std::string("slow body\n");
  });
  ASSERT_TRUE(server.Start(0).ok());

  std::string first;
  std::thread scraper(
      [&] { first = HttpGet(server.port(), "/metrics"); });
  const std::string second = HttpGet(server.port(), "/metrics");
  scraper.join();

  EXPECT_NE(first.find("200 OK"), std::string::npos) << first;
  EXPECT_NE(second.find("200 OK"), std::string::npos) << second;
  EXPECT_NE(first.find("slow body"), std::string::npos) << first;
  EXPECT_NE(second.find("slow body"), std::string::npos) << second;
  EXPECT_EQ(renders.load(), 2);
}

TEST(MetricsHttpServerTest, StalledClientDoesNotBlockOtherScrapers) {
  MetricsHttpServer server([] { return std::string("ok\n"); });
  ASSERT_TRUE(server.Start(0).ok());

  // Connect and send nothing: this client occupies a handler thread
  // until its receive timeout, but must not starve real scrapers.
  const int stalled = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stalled, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(
      ::connect(stalled, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
      0);

  const std::string response = HttpGet(server.port(), "/metrics");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("ok\n"), std::string::npos) << response;

  ::close(stalled);
  server.Stop();
}

TEST(MetricsHttpServerTest, StopIsIdempotentAndStartRejectsDoubleStart) {
  MetricsHttpServer server([] { return std::string(); });
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_FALSE(server.Start(0).ok());  // already running
  server.Stop();
  server.Stop();  // second stop is a no-op
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace esr
