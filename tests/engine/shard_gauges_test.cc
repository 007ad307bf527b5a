// Regression test for torn gauge reads: the MetricsHttpServer /metrics
// endpoint must render the per-shard `engine.shard<i>.*` gauges
// consistently while committers are mid commit on every worker. The fix
// under test: ExportShardGauges snapshots each shard's five counters under
// that shard's latch in one hold (never field by field), so every scrape
// observes a state satisfying the monotone chain
//
//   applied_writes >= committed_writes >= committed_writers
//
// even when writes are landing between the scraper's field reads.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/sharded/session.h"
#include "engine/sharded/sharded_engine.h"
#include "obs/prometheus.h"
#include "txn/server.h"

namespace esr {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kObjects = 64;

// Blocking one-shot HTTP GET against 127.0.0.1:port; empty on failure
// (same minimal client as the prometheus endpoint tests).
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

// Value of `esr_<sanitized name> <value>` in a scrape body; -1 if absent.
double GaugeIn(const std::string& body, const std::string& name) {
  const std::string needle = "\n" + PrometheusMetricName(name) + " ";
  const size_t pos = body.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::stod(body.substr(pos + needle.size()));
}

// Value of the labeled per-shard family sample
// `esr_shard_<stat>{shard="<s>"} <value>`; -1 if absent. The text
// exposition promotes the dotted engine.shard<i>.<stat> gauges to
// these labeled spellings (JSON/CSV keep the dotted names).
double ShardGaugeIn(const std::string& body, const std::string& stat,
                    size_t shard) {
  const std::string needle = "\nesr_shard_" + stat + "{shard=\"" +
                             std::to_string(shard) + "\"} ";
  const size_t pos = body.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::stod(body.substr(pos + needle.size()));
}

TEST(ShardGaugesTest, ConcurrentScrapesSeeConsistentShardCounters) {
  ServerOptions opt;
  opt.engine = EngineKind::kSharded;
  opt.sharded.num_shards = kShards;
  opt.store.num_objects = kObjects;
  opt.store.seed = 21;
  Server server(opt);
  ShardedEngine* engine = server.sharded_engine();
  ASSERT_NE(engine, nullptr);
  // Root-only shared budget so the engine.shared_eps.* gauges render too.
  BoundSpec shared_import;
  shared_import.SetTransactionLimit(1e9);
  BoundSpec shared_export;
  shared_export.SetTransactionLimit(1e9);
  engine->SetSharedBounds(shared_import, shared_export);

  // The endpoint renders exactly like the threaded server's sampler: fold
  // fresh shard snapshots into the registry, then serialize it. Renders
  // are serialized inside MetricsHttpServer, so concurrent scrapes never
  // interleave an export with a text write.
  MetricsHttpServer http([&server, engine] {
    engine->ExportShardGauges(&server.metrics());
    std::ostringstream out;
    WritePrometheusText(server.metrics(), out);
    return out.str();
  });
  ASSERT_TRUE(http.Start(/*port=*/0).ok());
  ASSERT_NE(http.port(), 0);

  // Background load keeping the commit path hot while the scrapers run.
  std::atomic<bool> load_done{false};
  std::thread load([&server, &load_done] {
    WorkloadSpec spec;
    spec.num_objects = kObjects;
    SessionPoolOptions pool;
    pool.sessions = 16;
    pool.txns_per_session = 400;
    pool.workers = 4;
    pool.seed = 7;
    RunSessionWorkers(&server, spec, pool);
    load_done.store(true, std::memory_order_release);
  });

  std::atomic<int> scrapes{0};
  std::atomic<int> torn{0};
  // Each scraper performs a fixed number of scrapes (most overlap the
  // load; any tail scrapes are quiescent and must still satisfy the
  // chain), so the test always exercises >= 24 concurrent renders.
  auto scraper = [&] {
    for (int round = 0; round < 8; ++round) {
      const std::string body = HttpGet(http.port(), "/metrics");
      if (body.empty()) continue;
      scrapes.fetch_add(1, std::memory_order_relaxed);
      for (size_t s = 0; s < kShards; ++s) {
        const double applied = ShardGaugeIn(body, "applied_writes", s);
        const double committed = ShardGaugeIn(body, "committed_writes", s);
        const double writers = ShardGaugeIn(body, "committed_writers", s);
        if (applied < 0 || committed < 0 || writers < 0) {
          torn.fetch_add(1, std::memory_order_relaxed);  // gauge missing
          continue;
        }
        if (applied < committed || committed < writers) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };
  std::vector<std::thread> scrapers;
  for (int i = 0; i < 3; ++i) scrapers.emplace_back(scraper);
  for (auto& t : scrapers) t.join();
  load.join();

  EXPECT_EQ(torn.load(), 0)
      << "a scrape observed a shard snapshot violating the monotone chain";
  EXPECT_GE(scrapes.load(), 24);

  // Quiescent final scrape: everything renders and adds up.
  const std::string body = HttpGet(http.port(), "/metrics");
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(GaugeIn(body, "engine.shards"), static_cast<double>(kShards));
  EXPECT_EQ(GaugeIn(body, "engine.commit_batches"),
            static_cast<double>(engine->commit_batches()));
  double committed_writes = 0;
  for (size_t s = 0; s < kShards; ++s) {
    const double shard_committed = ShardGaugeIn(body, "committed_writes", s);
    ASSERT_GE(shard_committed, 0.0) << "shard " << s;
    committed_writes += shard_committed;
    EXPECT_GE(ShardGaugeIn(body, "ops", s), 0.0);
    EXPECT_GE(ShardGaugeIn(body, "waits", s), 0.0);
  }
  EXPECT_GT(committed_writes, 0.0);
  // Shared budgets fully refunded at quiescence, and their gauges render.
  EXPECT_EQ(GaugeIn(body, "engine.shared_eps.import.node0"), 0.0);
  EXPECT_EQ(GaugeIn(body, "engine.shared_eps.export.node0"), 0.0);
  EXPECT_GE(GaugeIn(body, "engine.shared_eps.import.charges"), 0.0);

  http.Stop();
}

}  // namespace
}  // namespace esr
