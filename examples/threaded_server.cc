// The engine outside the simulator: a real multithreaded client/server
// run, mirroring the prototype's architecture (multiple clients submit
// the generated transaction load; aborted transactions are resubmitted
// with fresh timestamps until they commit). Prints per-level throughput
// and the server's internal counters.
//
// Usage:  ./build/examples/threaded_server [num_clients] [txns_per_client]
//             [--json metrics.json] [--trace trace.json] [--certify]
//             [--profile profile.json] [--health health.json]
//             [--metrics-port N] [--metrics-linger-ms N]
//             [--shards N] [--workers N] [--objects N] [--batch]
//
// Every number is a plain decimal. Counts (clients, txns, shards,
// workers, objects, hot set) are >= 1, --metrics-port is 0..65535 and
// --metrics-linger-ms is >= 0; anything else exits 1 before the run
// starts.
//
// The default run is the historical loopback demo: one OS thread per
// client against the TO engine (one shard). The scaling flags opt into
// more shards and the batched worker pool:
//
//   --shards N    run the sharded TO engine with N shards (per-shard
//                 latch, arena history, per-transaction commit); per-shard
//                 engine.shard<i>.* gauges are exported on /metrics.
//   --workers N   drive the clients as multiplexed sessions over N worker
//                 threads (engine/sharded/session.h) instead of one OS
//                 thread each — thousands of clients fit in a handful of
//                 workers, and ops reach the engine as per-shard batches.
//   --batch       shorthand for --workers hardware_concurrency.
//   --objects N   object store size (default 1000).
//   --hot-set N   width of the contended hot set (default: the workload
//                 spec's 20). Worker-pool sessions have zero think time,
//                 so at large client counts the default hot set thrashes
//                 on aborts; scale it with the population.
//
// --json dumps the final epsilon level's metric registry (counters plus
// latency percentiles) as JSON; --trace captures that run's transaction
// lifecycle as causal spans and writes Chrome trace-event JSON loadable
// in Perfetto / about:tracing (and replayable by `esr audit`).
// --metrics-port serves the live registry as Prometheus text on
// 127.0.0.1:<port>/metrics (0 picks a free port, printed on stderr) with
// a background sampler recording active-transaction gauges;
// --metrics-linger-ms keeps the endpoint up that long after the last
// level finishes so an external scraper can collect the final state.
// --certify streams the bound-walk, wait and commit/abort probes through
// an online bound certifier (obs/stream_audit.h) for the whole run — one
// certifier, one wall-clock epoch, across all three epsilon levels —
// without capturing a trace (--trace still captures the last level), and
// publishes the live watermark as the esr_certified_through_seconds /
// esr_certification_lag_windows gauges on /metrics; the process exits 2
// if any bound violation is certified.
// --profile turns on the wall-clock profiler (obs/profile.h) for the
// final epsilon level: per-phase cost attribution, per-site contention
// histograms, and blocked-by tables, written as JSON for `esr profile`
// (and live profile.* gauges on /metrics while the level runs).
// --health runs the windowed anomaly-detection engine (obs/health.h)
// live: every 1 s wall-clock window the sampler feeds the commit/abort
// deltas, active MPL, per-node headroom, and per-shard op deltas to the
// detector set; open episodes surface as esr_alert_active{detector=...}
// / esr_alert_count gauges on /metrics, and the alert journal is
// written as JSON (readable by `esr health --journal`). These
// windows are *wall-clock* — certification watermarks live in the
// certifier's own epoch, so the stall detector is left to recorded-run
// replay where both clocks are virtual (see DESIGN.md).
//
// SIGINT/SIGTERM interrupt the run cleanly: clients drain at the next
// safe point, every requested output (metrics JSON, trace, profile,
// health journal) is flushed for the level that was running, and the
// process exits 128+signal.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/sharded/session.h"
#include "engine/sharded/sharded_engine.h"
#include "esr/limits.h"
#include "hierarchy/accumulator.h"
#include "obs/exporter.h"
#include "obs/health.h"
#include "obs/profile.h"
#include "obs/prometheus.h"
#include "obs/series.h"
#include "obs/stream_audit.h"
#include "obs/trace.h"
#include "txn/server.h"
#include "txn/transaction.h"
#include "workload/generator.h"

namespace {

// Last signal delivered (0 = none). Async-signal-safe: the handler only
// stores; clients poll it at their loop tops and drain, so main joins,
// flushes every requested output, and exits 128+signal.
std::atomic<int> g_signal{0};

void HandleSignal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

bool Interrupted() { return g_signal.load(std::memory_order_relaxed) != 0; }

using Clock = std::chrono::steady_clock;

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct ClientResult {
  int64_t committed = 0;
  int64_t aborts = 0;
  int64_t waits = 0;
};

// The /metrics endpoint outlives each per-level Server, so scrapes go
// through this mutex-guarded indirection instead of a raw pointer.
struct MetricsHub {
  std::mutex mu;
  esr::Server* server = nullptr;

  void Set(esr::Server* s) {
    std::lock_guard<std::mutex> lock(mu);
    server = s;
  }

  std::string Render() {
    std::lock_guard<std::mutex> lock(mu);
    if (server == nullptr) return "# no active server\n";
    std::ostringstream out;
    esr::WritePrometheusText(server->metrics(), out);
    return out.str();
  }
};

// Executes `txns` transactions from a generated load against the server,
// retrying waits and resubmitting aborts, exactly like the prototype's
// clients (Sec. 6). Per-transaction commit latency lands in the server's
// metric registry ("client.txn_latency_ms"); every server call is wrapped
// in an RPC span so captured traces decompose like the simulator's.
ClientResult RunClient(esr::Server* server, esr::SiteId site,
                       const esr::WorkloadSpec& spec, int txns) {
  ClientResult result;
  esr::WorkloadGenerator generator(spec, 1000 + site);
  esr::TimestampGenerator ts_gen(site);
  // Contention site for client-observed operation waits: the engine
  // returns kWait with the blocking writer's id, and the retry backoff
  // below is the timed wait charged to it.
  esr::ContentionSite* const op_wait_site =
      esr::GlobalProfiler().site("server.op_wait");
  for (int i = 0; i < txns; ++i) {
    if (Interrupted()) break;
    const esr::TxnScript script = generator.Next();
    const int64_t started_us = NowMicros();
    bool committed = false;
    while (!committed) {
      if (Interrupted()) return result;
      const esr::TxnId txn =
          server->Begin(script.type, ts_gen.Next(NowMicros()),
                        script.bounds);
      const esr::Transaction* t = server->engine().Find(txn);
      const uint64_t txn_span = t != nullptr ? t->trace_span() : 0;
      std::vector<esr::Value> reads;
      bool aborted = false;
      for (const esr::ScriptOp& op : script.ops) {
        // A small per-op pause stands in for the RPC round trip; without
        // it transactions are so short that clients never overlap and no
        // concurrency control ever fires. It is profiled as the rpc
        // phase, so attribution accounts for (nearly) every microsecond
        // between Begin and commit.
        {
          esr::ScopedPhaseTimer rpc_phase(esr::ProfilePhase::kRpc);
          std::this_thread::sleep_for(std::chrono::microseconds(150));
        }
        esr::OpResult r;
        while (true) {
          {
            // One RPC span per attempt: the engine's op span (and bound
            // walk) nest inside it, and the gap to the next attempt is
            // the wait backoff the auditor attributes to conflicts.
            esr::TraceSpan rpc(esr::SpanKind::kRpc, txn, site, op.object,
                               txn_span);
            if (op.kind == esr::ScriptOp::Kind::kRead) {
              r = server->Read(txn, op.object);
            } else {
              const esr::Value value = esr::ApplyDeltaReflecting(
                  reads[static_cast<size_t>(op.source_read)], op.delta,
                  spec.min_value, spec.max_value);
              r = server->Write(txn, op.object, value);
            }
          }
          if (r.kind != esr::OpResult::Kind::kWait) break;
          ++result.waits;
          {
            // Lock-wait phase plus blocked-by attribution: the engine
            // told us which uncommitted writer blocks this op.
            esr::ScopedPhaseTimer wait_phase(esr::ProfilePhase::kLockWait);
            esr::ScopedSiteWait site_wait(op_wait_site, r.blocker);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          if (Interrupted()) {
            (void)server->Abort(txn);
            return result;
          }
        }
        if (r.kind == esr::OpResult::Kind::kAbort) {
          ++result.aborts;
          aborted = true;
          break;
        }
        if (op.kind == esr::ScriptOp::Kind::kRead) reads.push_back(r.value);
      }
      if (aborted) continue;  // immediate restart with a new timestamp
      bool commit_ok;
      {
        esr::TraceSpan rpc(esr::SpanKind::kRpc, txn, site, 0, txn_span);
        commit_ok = server->Commit(txn).ok();
      }
      if (commit_ok) {
        committed = true;
        ++result.committed;
        server->metrics().RecordSample(
            "client.txn_latency_ms",
            static_cast<double>(NowMicros() - started_us) / 1000.0);
      }
    }
  }
  return result;
}

/// A numeric command-line argument and its accepted range.
struct IntArg {
  const char* name;
  int* value;
  int min;
  int max;
};

/// Stores `text` into `arg.value` when it is a plain decimal (no sign,
/// nothing after the digits) inside [arg.min, arg.max]; otherwise prints
/// why and returns false.
bool ParseIntArg(const IntArg& arg, const char* text) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (text[0] < '0' || text[0] > '9' || *end != '\0' || errno == ERANGE ||
      value < arg.min || value > arg.max) {
    std::fprintf(stderr, "%s must be an integer in [%d, %d], got '%s'\n",
                 arg.name, arg.min, arg.max, text);
    return false;
  }
  *arg.value = static_cast<int>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int num_clients = 4;
  int txns_per_client = 250;
  std::string json_path;
  std::string trace_path;
  std::string profile_path;
  std::string health_path;
  bool certify = false;
  int metrics_port = -1;
  int metrics_linger_ms = 0;
  int num_shards = 0;    // 0 = the TO engine (one shard)
  int num_workers = 0;   // 0 = one OS thread per client
  int num_objects = 1000;
  int hot_set = 0;  // 0 = keep the workload spec default
  // Numbers are checked here, before any thread starts or port binds.
  const IntArg kIntFlags[] = {
      {"--metrics-port", &metrics_port, 0, 65535},
      {"--metrics-linger-ms", &metrics_linger_ms, 0, INT_MAX},
      {"--shards", &num_shards, 1, INT_MAX},
      {"--workers", &num_workers, 1, INT_MAX},
      {"--objects", &num_objects, 1, INT_MAX},
      {"--hot-set", &hot_set, 1, INT_MAX},
  };
  const IntArg kPositional[] = {
      {"num_clients", &num_clients, 1, INT_MAX},
      {"txns_per_client", &txns_per_client, 1, INT_MAX},
  };
  const std::pair<const char*, std::string*> kPathFlags[] = {
      {"--json", &json_path},
      {"--trace", &trace_path},
      {"--profile", &profile_path},
      {"--health", &health_path},
  };
  size_t positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const IntArg* int_flag = nullptr;
    for (const IntArg& flag : kIntFlags) {
      if (std::strcmp(arg, flag.name) == 0) int_flag = &flag;
    }
    std::string* path = nullptr;
    for (const auto& [name, target] : kPathFlags) {
      if (std::strcmp(arg, name) == 0) path = target;
    }
    if (std::strcmp(arg, "--certify") == 0) {
      certify = true;
    } else if (std::strcmp(arg, "--batch") == 0) {
      if (num_workers <= 0) {
        num_workers =
            static_cast<int>(std::thread::hardware_concurrency());
        if (num_workers <= 0) num_workers = 4;
      }
    } else if (int_flag != nullptr || path != nullptr) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", arg);
        return 1;
      }
      if (path != nullptr) {
        *path = argv[++i];
      } else if (!ParseIntArg(*int_flag, argv[++i])) {
        return 1;
      }
    } else if (positional < std::size(kPositional)) {
      if (!ParseIntArg(kPositional[positional++], arg)) return 1;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 1;
    }
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

#ifdef ESR_TRACE_DISABLED
  if (!profile_path.empty()) {
    std::fprintf(stderr,
                 "--profile ignored: profiling compiled out "
                 "(ESR_DISABLE_TRACING)\n");
  }
#endif

  MetricsHub hub;
  esr::MetricsHttpServer metrics_http([&hub] { return hub.Render(); });
  if (metrics_port >= 0) {
    const esr::Status s =
        metrics_http.Start(static_cast<uint16_t>(metrics_port));
    if (!s.ok()) {
      std::fprintf(stderr, "metrics endpoint failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "serving /metrics on 127.0.0.1:%u\n",
                 metrics_http.port());
  }

  // Streaming certification spans the whole run: one certifier, one
  // wall-clock epoch, subscribed to the recorder before any level starts,
  // so the watermark advances monotonically across all three epsilon
  // levels and a /metrics scraper can watch it move live.
  std::unique_ptr<esr::StreamCertifier> certifier;
  std::optional<esr::ScopedTraceObserver> certify_observer;
  if (certify) {
#ifndef ESR_TRACE_DISABLED
    esr::StreamCertifierOptions certifier_options;
    certifier_options.window_s = 1.0;
    certifier_options.epoch_micros = NowMicros();
    certifier_options.source = "threaded_server";
    certifier_options.emit_trace_events = true;
    certifier = std::make_unique<esr::StreamCertifier>(certifier_options);
    // Observing does not capture: only --trace fills the ring.
    certify_observer.emplace(&esr::StreamCertifier::ObserveTrampoline,
                             certifier.get(),
                             esr::StreamCertifier::kObservedKinds);
    std::fprintf(stderr,
                 "streaming certification on: 1s wall-clock windows\n");
#else
    std::fprintf(stderr,
                 "--certify ignored: tracing compiled out "
                 "(ESR_DISABLE_TRACING)\n");
#endif
  }

  std::printf("threaded client/server run: %d clients x %d transactions\n\n",
              num_clients, txns_per_client);
  std::printf("%-8s %10s %10s %10s %10s %12s\n", "epsilon", "tput(tps)",
              "commits", "aborts", "waits", "p99 lat(ms)");

  const esr::EpsilonLevel levels[] = {esr::EpsilonLevel::kZero,
                                      esr::EpsilonLevel::kLow,
                                      esr::EpsilonLevel::kHigh};
  const esr::EpsilonLevel last_level = levels[2];

  for (const esr::EpsilonLevel level : levels) {
    esr::ServerOptions options;
    options.store.num_objects = static_cast<size_t>(num_objects);
    if (num_shards > 0) {
      options.engine = esr::EngineKind::kSharded;
      options.sharded.num_shards = static_cast<size_t>(num_shards);
    }
    esr::Server server(options);
    hub.Set(&server);

    esr::WorkloadSpec spec;
    spec.num_objects = static_cast<size_t>(num_objects);
    if (hot_set > 0) spec.hot_set_size = static_cast<size_t>(hot_set);
    const esr::TransactionLimits limits = esr::LimitsForLevel(level);
    spec.til = limits.til;
    spec.tel = limits.tel;

    // Trace only the last (most relaxed) level so the capture covers one
    // coherent run rather than three concatenated ones.
    const bool tracing = !trace_path.empty() && level == last_level;
    if (tracing) {
      esr::GlobalTrace().Reset();
      esr::GlobalTrace().set_enabled(true);
    }

    // Profile the same single coherent run as the trace: the last level.
#ifndef ESR_TRACE_DISABLED
    const bool profiling = !profile_path.empty() && level == last_level;
#else
    const bool profiling = false;
#endif
    if (profiling) {
      esr::GlobalProfiler().Reset();
      esr::GlobalProfiler().set_enabled(true);
    }

    // Periodic snapshot sampler: a live gauge of concurrent transactions
    // (and a tick counter proving liveness), visible on /metrics. Bound
    // charges feed a headroom tracker; once per wall second its window is
    // folded into a rolling series and republished as
    // headroom.min_frac[.<node>] gauges, so scrapes see how close each
    // hierarchy node has come to its inconsistency bound.
    esr::NodeHeadroomTracker headroom(server.schema().num_groups());
    server.engine().SetHeadroomTracker(&headroom);
    esr::RunSeries headroom_series;
    headroom_series.source = "threaded_server";
    headroom_series.window_s = 1.0;
    for (esr::GroupId g = 0; g < server.schema().num_groups(); ++g) {
      headroom_series.node_names.push_back(server.schema().name(g));
    }
    // Live health monitor: the sampler feeds it one SeriesWindow per
    // wall-clock second — the same stream AnalyzeSeries replays offline,
    // so a recorded run reproduces exactly the alerts raised here.
    std::unique_ptr<esr::HealthMonitor> health;
    if (!health_path.empty()) {
      health = std::make_unique<esr::HealthMonitor>(
          headroom_series.source, headroom_series.window_s,
          headroom_series.node_names);
    }
    std::atomic<bool> sampling{true};
    esr::StreamCertifier* const cert = certifier.get();
    esr::ShardedEngine* const sharded = server.sharded_engine();
    esr::HealthMonitor* const monitor = health.get();
    std::thread sampler([&server, &sampling, &headroom, &headroom_series,
                         cert, profiling, sharded, monitor] {
      int64_t ticks = 0;
      // Commit/abort counter totals at the last window fold; the deltas
      // are the per-window committed/aborted the detectors consume.
      int64_t prev_committed = 0;
      int64_t prev_aborted = 0;
      std::vector<int64_t> prev_shard_ops;
      auto fold_window = [&](double duration_s) {
        esr::SeriesWindow w;
        w.start_s = static_cast<double>(headroom_series.windows.size());
        w.duration_s = duration_s;
        w.active_mpl = static_cast<double>(server.engine().num_active());
        const int64_t committed_total =
            server.metrics().counter("txn.commit.query").value() +
            server.metrics().counter("txn.commit.update").value();
        const int64_t aborted_total =
            server.metrics().counter("txn.abort").value();
        w.committed = committed_total - prev_committed;
        w.aborted = aborted_total - prev_aborted;
        prev_committed = committed_total;
        prev_aborted = aborted_total;
        // Wall-clock run: the certification watermark lives in the
        // certifier's own epoch, not this window index — leave the
        // sentinel so the stall detector stays inert (clock domains
        // must match before lag means anything; DESIGN.md).
        w.nodes.resize(headroom.num_nodes());
        for (esr::GroupId g = 0; g < headroom.num_nodes(); ++g) {
          const esr::NodeHeadroomTracker::NodeSample s =
              headroom.WindowSample(g);
          w.nodes[g].max_accumulated = s.max_accumulated;
          w.nodes[g].min_headroom_frac = s.min_headroom_frac;
          w.nodes[g].limit_at_min = s.limit_at_min;
          w.nodes[g].charges = s.charges;
        }
        headroom.StartWindow();
        if (monitor != nullptr) {
          esr::HealthInput input;
          if (sharded != nullptr) {
            prev_shard_ops.resize(sharded->num_shards(), 0);
            input.shard_ops.resize(sharded->num_shards(), 0);
            for (size_t s = 0; s < sharded->num_shards(); ++s) {
              const int64_t ops = static_cast<int64_t>(
                  sharded->SnapshotShardStats(s).ops);
              input.shard_ops[s] = ops - prev_shard_ops[s];
              prev_shard_ops[s] = ops;
            }
          }
          monitor->OnWindow(w, input);
          monitor->ExportGauges(&server.metrics());
        }
        headroom_series.windows.push_back(std::move(w));
        esr::ExportHeadroomGauges(headroom_series, &server.metrics());
      };
      while (sampling.load(std::memory_order_acquire)) {
        server.metrics().RecordSample(
            "server.active_txns",
            static_cast<double>(server.engine().num_active()));
        server.metrics().counter("sampler.ticks").Increment();
        if (cert != nullptr) {
          // Heartbeat so the watermark advances through quiet stretches,
          // then republish the live gauges for /metrics scrapers.
          cert->AdvanceTo(NowMicros());
          server.metrics()
              .gauge("certified_through_seconds")
              .Set(cert->certified_through_s());
          server.metrics()
              .gauge("certification_lag_windows")
              .Set(cert->lag_windows());
        }
        if (profiling) {
          // Live profile.phase_* / profile.site.* gauges for scrapers
          // (atomics only — the quiescent histograms export after joins).
          esr::GlobalProfiler().ExportLiveGauges(&server.metrics());
        }
        if (sharded != nullptr) {
          // Per-shard engine.shard<i>.* gauges, refreshed every tick so
          // scrapes see live per-shard op/wait/commit counts. Safe
          // against concurrent commits: each gauge reads one shard's
          // stats under its latch (see shard_gauges_test.cc).
          sharded->ExportShardGauges(&server.metrics());
        }
        if (++ticks % 100 == 0) {  // 100 x 10 ms: one-second windows
          fold_window(1.0);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      // Short runs end mid-window; fold the remainder so even a
      // sub-second level publishes its headroom gauges.
      if (ticks % 100 != 0) {
        fold_window(static_cast<double>(ticks % 100) / 100.0);
      }
    });

    std::vector<ClientResult> results(
        static_cast<size_t>(num_clients));
    const auto start = Clock::now();
    if (num_workers > 0) {
      // Worker-pool mode: clients are multiplexed sessions, not OS
      // threads, so num_clients can be in the thousands. Ops reach the
      // engine as per-shard batches, and each worker commits its own
      // sessions' transactions inline.
      esr::SessionPoolOptions pool;
      pool.sessions = static_cast<size_t>(num_clients);
      pool.txns_per_session = txns_per_client;
      pool.workers = static_cast<size_t>(num_workers);
      pool.seed = 0;  // site seeding then matches thread-per-client mode
      pool.record_latency = true;
      std::atomic<bool> stop{false};
      pool.stop = &stop;
      // Relay SIGINT/SIGTERM into the pool's cooperative stop flag; the
      // workers abort in-flight transactions and drain at the next op
      // boundary, same contract as RunClient's Interrupted() polls.
      std::atomic<bool> watching{true};
      std::thread watcher([&stop, &watching] {
        while (watching.load(std::memory_order_acquire)) {
          if (Interrupted()) {
            stop.store(true, std::memory_order_relaxed);
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      });
      const esr::SessionPoolResult pool_result =
          esr::RunSessionWorkers(&server, spec, pool);
      watching.store(false, std::memory_order_release);
      watcher.join();
      for (size_t s = 0;
           s < pool_result.per_session.size() && s < results.size(); ++s) {
        results[s].committed = pool_result.per_session[s].committed;
        results[s].aborts = pool_result.per_session[s].aborts;
        results[s].waits = pool_result.per_session[s].waits;
      }
    } else {
      std::vector<std::thread> threads;
      for (int c = 0; c < num_clients; ++c) {
        threads.emplace_back([&, c] {
          results[static_cast<size_t>(c)] =
              RunClient(&server, static_cast<esr::SiteId>(c + 1), spec,
                        txns_per_client);
        });
      }
      for (auto& thread : threads) thread.join();
    }
    const double elapsed_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    sampling.store(false, std::memory_order_release);
    sampler.join();
    // The tracker outlives all transactions (clients joined above), but
    // not the engine — detach before it goes out of scope.
    server.engine().SetHeadroomTracker(nullptr);

    if (tracing) {
      esr::GlobalTrace().set_enabled(false);
      const esr::Status s =
          esr::GlobalTrace().ExportChromeTraceToFile(trace_path);
      if (!s.ok()) {
        std::fprintf(stderr, "trace export failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %zu trace events to %s\n",
                   esr::GlobalTrace().size(), trace_path.c_str());
    }

    if (profiling) {
      esr::GlobalProfiler().set_enabled(false);
      // Merge the per-thread phase histograms into the registry before
      // the metrics JSON export and any lingering scrape, so both carry
      // the profile.phase_ms.* families; then write the full profile
      // (threads, sites, blockers) for `esr profile`.
      esr::GlobalProfiler().ExportPhaseHistograms(&server.metrics());
      esr::ProfileTxnTotals txn_totals;
      if (const esr::Histogram* lat =
              server.metrics().FindHistogram("client.txn_latency_ms")) {
        txn_totals.count = static_cast<uint64_t>(lat->count());
        txn_totals.total_ms =
            lat->mean() * static_cast<double>(lat->count());
      }
      const esr::Status s = esr::WriteProfileJsonToFile(
          esr::GlobalProfiler().Snapshot(), txn_totals, /*enabled=*/true,
          profile_path);
      if (!s.ok()) {
        std::fprintf(stderr, "profile export failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote profile JSON to %s\n",
                   profile_path.c_str());
    }

    ClientResult total;
    for (const ClientResult& r : results) {
      total.committed += r.committed;
      total.aborts += r.aborts;
      total.waits += r.waits;
    }
    const esr::Histogram* latency =
        server.metrics().FindHistogram("client.txn_latency_ms");
    std::printf("%-8s %10.0f %10lld %10lld %10lld %12.2f\n",
                std::string(esr::EpsilonLevelToString(level)).c_str(),
                static_cast<double>(total.committed) / elapsed_s,
                static_cast<long long>(total.committed),
                static_cast<long long>(total.aborts),
                static_cast<long long>(total.waits),
                latency != nullptr ? latency->ApproximatePercentile(0.99)
                                   : 0.0);

    // Same flush contract as the metrics JSON: on interrupt, the level
    // that was running is the last that will ever finish, so its alert
    // journal is written instead of dropped — a mid-run SIGTERM still
    // leaves a parseable journal on disk (pinned by ctest).
    if (health != nullptr && (level == last_level || Interrupted())) {
      const esr::HealthReport report = health->Report();
      const esr::Status s =
          esr::WriteHealthJsonToFile(report, health_path);
      if (!s.ok()) {
        std::fprintf(stderr, "health journal export failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      const std::string verdict =
          report.healthy()
              ? "HEALTHY"
              : std::to_string(report.alerts.size()) + " alert(s)";
      std::fprintf(stderr, "health: %s over %zu window(s) — journal at %s\n",
                   verdict.c_str(), report.windows, health_path.c_str());
    }

    // On interrupt, the level that was running is the last one that will
    // ever finish — flush the metrics JSON for it instead of dropping it.
    if (!json_path.empty() && (level == last_level || Interrupted())) {
      const esr::Status s =
          esr::ExportMetricsJsonToFile(server.metrics(), json_path);
      if (!s.ok()) {
        std::fprintf(stderr, "metrics export failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote metrics JSON to %s\n", json_path.c_str());
    }

    if (level == last_level && metrics_linger_ms > 0 &&
        metrics_http.running() && !Interrupted()) {
      // Keep the final registry scrapeable for external collectors.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(metrics_linger_ms));
    }
    hub.Set(nullptr);
    if (Interrupted()) break;
  }
  metrics_http.Stop();

  int exit_code = 0;
  if (certifier != nullptr) {
    certify_observer.reset();  // detach before reading the final verdict
    certifier->AdvanceTo(NowMicros());
    const esr::StreamCertification cert = certifier->Snapshot();
    if (cert.certified()) {
      std::printf(
          "\nstreaming certification: PASS — certified through %.1fs "
          "(%zu walks, %zu charges over %zu windows)\n",
          cert.certified_through_s, cert.walks_replayed,
          cert.charges_applied, cert.windows_closed);
    } else {
      std::printf(
          "\nstreaming certification: FAIL — %zu violation(s); watermark "
          "froze at %.1fs\n",
          cert.violations.size(), cert.certified_through_s);
      exit_code = 2;
    }
  }

  std::printf("\nNote: without the simulated RPC latency the engine is "
              "memory-speed, so absolute\nnumbers dwarf the paper's; the "
              "epsilon ordering of aborts is what carries over.\n");
  const int sig = g_signal.load(std::memory_order_relaxed);
  if (sig != 0) {
    std::fprintf(stderr,
                 "interrupted by signal %d; outputs flushed, exiting\n", sig);
    return 128 + sig;
  }
  return exit_code;
}
