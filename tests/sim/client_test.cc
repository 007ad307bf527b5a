// The client's landing contract: an op costs two scheduled events (its
// request's arrival and its execution), and what a response changes on
// the client (stats, commit-latency sample, RPC span end) becomes
// visible exactly at the instant the response lands.

#include "sim/client.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "esr/limits.h"
#include "obs/trace.h"
#include "sim/cluster.h"
#include "sim/series_sampler.h"

namespace esr {
namespace {

/// Runaway guard for the event-by-event loops below.
constexpr int kMaxEvents = 100'000;

/// One client alone against its server, driven event by event.
class OneClientTest : public ::testing::Test {
 protected:
  OneClientTest() : server_(StoreFor(spec_)), latency_({}, 17, 2) {
    Rng skew(23);
    client_ = std::make_unique<SimClient>(
        1, &server_, &queue_, &latency_, WorkloadGenerator(spec_, 29),
        SkewedClock(1, SkewedClockOptions{}, &skew));
    client_->Start(0);
  }

  static ServerOptions StoreFor(const WorkloadSpec& spec) {
    ServerOptions options;
    options.store.num_objects = spec.num_objects;
    options.store.min_value = spec.min_value;
    options.store.max_value = spec.max_value;
    return options;
  }

  int64_t ServerCount(const std::string& name) {
    return server_.metrics().CounterValue(name);
  }

  WorkloadSpec spec_;
  EventQueue queue_;
  Server server_;
  LatencyModel latency_;
  std::unique_ptr<SimClient> client_;
};

TEST_F(OneClientTest, ResponsesCountExactlyAtTheirLanding) {
  int op_landings = 0;
  int commit_landings = 0;
  for (int events = 0; commit_landings < 5; ++events) {
    ASSERT_LT(events, kMaxEvents);
    ASSERT_TRUE(queue_.RunOne());
    const SimTime now = queue_.now();
    const SimTime landed = client_->pending_landing_at();
    if (landed == SimClient::kNoLanding) continue;
    // Opened by the event that just ran, which executed the call: nothing
    // of it shows at execution or one microsecond before the landing.
    ASSERT_GT(landed, now);
    const ClientStats before = client_->StatsAt(now);
    const int64_t samples = client_->LatencyHistogramAt(now).count();
    const ClientStats early = client_->StatsAt(landed - 1);
    EXPECT_EQ(early.op_responses, before.op_responses);
    EXPECT_EQ(early.ops_executed, before.ops_executed);
    EXPECT_EQ(early.committed, before.committed);
    EXPECT_EQ(client_->LatencyHistogramAt(landed - 1).count(), samples);
    ASSERT_EQ(client_->pending_landing_at(), landed);

    const ClientStats after = client_->StatsAt(landed);
    EXPECT_EQ(client_->pending_landing_at(), SimClient::kNoLanding);
    if (after.committed == before.committed) {
      // An op response: one round trip, one executed op (no conflicts).
      EXPECT_EQ(after.op_responses, before.op_responses + 1);
      EXPECT_EQ(after.ops_executed, before.ops_executed + 1);
      EXPECT_EQ(client_->LatencyHistogramAt(landed).count(), samples);
      ++op_landings;
    } else {
      EXPECT_EQ(after.committed, before.committed + 1);
      EXPECT_EQ(after.op_responses, before.op_responses);
      EXPECT_EQ(client_->LatencyHistogramAt(landed).count(), samples + 1);
      ++commit_landings;
    }
  }
  EXPECT_GT(op_landings, commit_landings);
}

TEST_F(OneClientTest, ConflictFreeClientRunsTwoEventsPerOp) {
  // A sampler's window events are the only others in the queue.
  SeriesSamplerOptions sampler_options;
  sampler_options.window_s = 0.25;
  SeriesSampler sampler(
      &queue_, &server_,
      [this] {
        SeriesSampler::Cumulative total;
        total.committed = client_->StatsAt(queue_.now()).committed;
        return total;
      },
      sampler_options);
  sampler.ScheduleWindows(60.0);

  int checked = 0;
  for (int events = 0; checked < 20; ++events) {
    ASSERT_LT(events, kMaxEvents);
    const int64_t begins_before =
        ServerCount("txn.begin.query") + ServerCount("txn.begin.update");
    ASSERT_TRUE(queue_.RunOne());
    const int64_t begins =
        ServerCount("txn.begin.query") + ServerCount("txn.begin.update");
    if (begins == begins_before) continue;
    // A BEGIN just ran, so every op sent so far has executed: one start
    // event, one per BEGIN and per COMMIT, two per op, one per window.
    const int64_t ops = ServerCount("op.read") + ServerCount("op.write");
    const int64_t commits =
        ServerCount("txn.commit.query") + ServerCount("txn.commit.update");
    const int64_t windows = queue_.now() / 250'000;
    EXPECT_EQ(queue_.executed(),
              static_cast<uint64_t>(2 * ops + begins + commits + 1 + windows))
        << "at " << queue_.now();
    ++checked;
  }
  const ClientStats& stats = client_->StatsAt(queue_.now());
  EXPECT_EQ(stats.aborts, 0);
  EXPECT_EQ(stats.waits, 0);
  EXPECT_GT(stats.committed, 15);
}

#ifndef ESR_TRACE_DISABLED
int64_t QueueNow(void* queue) {
  return static_cast<int64_t>(static_cast<const EventQueue*>(queue)->now());
}

TEST_F(OneClientTest, RpcSpanLastsExactlyTheOpLatency) {
  ScopedTraceTimeSource clock(&QueueNow, &queue_);
  GlobalTrace().Reset();
  GlobalTrace().set_enabled(true);
  int64_t latency_before = 0;
  int checked = 0;
  for (int steps = 0; checked < 40; ++steps) {
    ASSERT_LT(steps, kMaxEvents);
    ASSERT_TRUE(queue_.RunOne());
    const ClientStats& stats = client_->StatsAt(queue_.now());
    if (stats.op_latency_total_us == latency_before) continue;
    const int64_t op_latency = stats.op_latency_total_us - latency_before;
    latency_before = stats.op_latency_total_us;
    // The span that just ended is the op's RPC leg.
    const std::vector<TraceEvent> events = GlobalTrace().Snapshot();
    const TraceEvent* end = nullptr;
    for (const TraceEvent& e : events) {
      if (e.type == TraceEventType::kSpanEnd &&
          static_cast<SpanKind>(e.detail) == SpanKind::kRpc) {
        end = &e;
      }
    }
    ASSERT_NE(end, nullptr);
    const TraceEvent* begin = nullptr;
    for (const TraceEvent& e : events) {
      if (e.type == TraceEventType::kSpanBegin && e.span == end->span) {
        begin = &e;
      }
    }
    ASSERT_NE(begin, nullptr);
    EXPECT_EQ(end->ts_micros - begin->ts_micros, op_latency);
    EXPECT_LE(end->ts_micros, static_cast<int64_t>(queue_.now()));
    ++checked;
  }
  GlobalTrace().set_enabled(false);
  GlobalTrace().Reset();
}

ClusterOptions OneClientRun(double warmup_s, double measure_s) {
  ClusterOptions options;
  options.mpl = 1;
  const TransactionLimits limits = LimitsForLevel(EpsilonLevel::kHigh);
  options.workload.til = limits.til;
  options.workload.tel = limits.tel;
  options.warmup_s = warmup_s;
  options.measure_s = measure_s;
  options.seed = 41;
  return options;
}

TEST(ClusterLandingTest, AckLandingAfterWarmupEndIsMeasured) {
  // A captured run gives each commit's execution (its kCommit event) and
  // its ack's landing (the end of the transaction's last RPC span).
  GlobalTrace().Reset();
  GlobalTrace().set_enabled(true);
  RunCluster(OneClientRun(0.0, 8.0));
  GlobalTrace().set_enabled(false);
  ASSERT_EQ(GlobalTrace().dropped(), 0u);
  const std::vector<TraceEvent> events = GlobalTrace().Snapshot();
  GlobalTrace().Reset();

  std::map<TxnId, int64_t> executed_at;
  std::map<TxnId, int64_t> last_rpc_end;
  for (const TraceEvent& e : events) {
    if (e.type == TraceEventType::kCommit) executed_at[e.txn] = e.ts_micros;
    if (e.type == TraceEventType::kSpanEnd &&
        static_cast<SpanKind>(e.detail) == SpanKind::kRpc) {
      int64_t& end = last_rpc_end[e.txn];
      end = std::max(end, e.ts_micros);
    }
  }
  std::vector<std::pair<int64_t, int64_t>> commits;  // (execution, landing)
  for (const auto& [txn, at] : executed_at) {
    ASSERT_GT(last_rpc_end.count(txn), 0u);
    commits.emplace_back(at, last_rpc_end[txn]);
  }
  std::sort(commits.begin(), commits.end());
  ASSERT_GE(commits.size(), 8u);

  // Cut one window edge between a commit's execution and its ack's
  // landing and the other between two commits: the commit in flight at
  // warm-up's end is measured, the one in flight at the end is not.
  const auto in_flight = [](const std::pair<int64_t, int64_t>& c) {
    EXPECT_GT(c.second - c.first, 2);
    return c.first + (c.second - c.first) / 2;
  };
  const auto between = [](const std::pair<int64_t, int64_t>& before,
                          const std::pair<int64_t, int64_t>& after) {
    EXPECT_GT(after.first - before.second, 2);
    return before.second + (after.first - before.second) / 2;
  };
  const auto run = [](int64_t warmup_end, int64_t measure_end) {
    return RunCluster(OneClientRun(
        static_cast<double>(warmup_end) / 1e6,
        static_cast<double>(measure_end - warmup_end) / 1e6));
  };
  // Commits 2..5 are acknowledged inside both windows.
  const SimResult late_ack_at_start =
      run(in_flight(commits[2]), between(commits[5], commits[6]));
  EXPECT_EQ(late_ack_at_start.committed, 4);
  EXPECT_EQ(late_ack_at_start.latency_ms.count(), 4);
  const SimResult late_ack_at_end =
      run(between(commits[1], commits[2]), in_flight(commits[6]));
  EXPECT_EQ(late_ack_at_end.committed, 4);
  EXPECT_EQ(late_ack_at_end.latency_ms.count(), 4);
}
#endif  // ESR_TRACE_DISABLED

}  // namespace
}  // namespace esr
