#include "engine/sharded/session.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/random.h"
#include "obs/profile.h"

namespace esr {
namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SessionDriver::SessionDriver(Server* server, SiteId site,
                             const WorkloadSpec* spec, uint64_t seed,
                             int target_txns, std::atomic<bool>* stop,
                             bool record_latency)
    : server_(server),
      spec_(spec),
      site_(site),
      target_txns_(target_txns),
      stop_(stop),
      record_latency_(record_latency),
      // Same per-site seeding scheme as the thread-per-client loop, mixed
      // with the pool seed so distinct runs generate distinct loads.
      generator_(*spec, 1000 + site + seed * 7919),
      ts_gen_(site) {}

void SessionDriver::AbortInFlight() {
  if (txn_ != kInvalidTxnId) {
    (void)server_->Abort(txn_);
    txn_ = kInvalidTxnId;
  }
}

bool SessionDriver::NextOp(OpRequest* out) {
  while (true) {
    if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) {
      AbortInFlight();
      finished_ = true;
      return false;
    }
    if (completed_ >= target_txns_) {
      finished_ = true;
      return false;
    }
    if (txn_ == kInvalidTxnId) {
      if (!script_valid_) {
        generator_.Next(&script_);
        script_valid_ = true;
        started_us_ = NowMicros();
      }
      // Fresh timestamp per (re)submission, exactly like the prototype's
      // clients resubmitting after an abort.
      txn_ = server_->Begin(script_.type, ts_gen_.Next(NowMicros()),
                            script_.bounds);
      op_index_ = 0;
      reads_.clear();
    }
    if (op_index_ < script_.ops.size()) {
      const ScriptOp& op = script_.ops[op_index_];
      out->txn = txn_;
      out->object = op.object;
      if (op.kind == ScriptOp::Kind::kRead) {
        out->is_write = false;
        out->value = 0;
      } else {
        out->is_write = true;
        out->value = ApplyDeltaReflecting(
            reads_[static_cast<size_t>(op.source_read)], op.delta,
            spec_->min_value, spec_->max_value);
      }
      return true;
    }
    // Script exhausted: commit inline. The sharded engine installs this
    // transaction's writes and drops its reads right here on the worker,
    // one shard latch at a time; no other committer is waited for.
    if (server_->Commit(txn_).ok()) {
      ++stats_.committed;
      ++completed_;
      if (record_latency_) {
        server_->metrics().RecordSample(
            "client.txn_latency_ms",
            static_cast<double>(NowMicros() - started_us_) / 1000.0);
      }
      script_valid_ = false;
    }
    txn_ = kInvalidTxnId;
    // Loop: begin the next script (or resubmit this one on commit
    // failure) and hand out its first op.
  }
}

void SessionDriver::OnResult(const OpResult& r) {
  switch (r.kind) {
    case OpResult::Kind::kOk:
      if (script_.ops[op_index_].kind == ScriptOp::Kind::kRead) {
        reads_.push_back(r.value);
      }
      ++op_index_;
      break;
    case OpResult::Kind::kWait:
      // Same op again next round; the blocking writer's session drains
      // through the same worker pool, so the wait resolves.
      ++stats_.waits;
      break;
    case OpResult::Kind::kAbort:
      // Server already tore the transaction down (shadows restored);
      // resubmit the same script with a fresh timestamp.
      ++stats_.aborts;
      txn_ = kInvalidTxnId;
      break;
  }
}

SessionPoolResult RunSessionWorkers(Server* server, const WorkloadSpec& spec,
                                    const SessionPoolOptions& options) {
  ESR_CHECK(options.sessions > 0);
  const size_t workers =
      std::max<size_t>(1, std::min(options.workers, options.sessions));

  std::vector<std::unique_ptr<SessionDriver>> drivers;
  drivers.reserve(options.sessions);
  for (size_t i = 0; i < options.sessions; ++i) {
    drivers.push_back(std::make_unique<SessionDriver>(
        server, static_cast<SiteId>(i + 1), &spec, options.seed,
        options.txns_per_session, options.stop, options.record_latency));
  }

  LoadHints hints;
  hints.concurrent_txns = options.sessions;
  hints.objects_per_txn =
      static_cast<size_t>(std::max(spec.query_ops_max, spec.update_ops_max));
  server->engine().ReserveForLoad(hints);

  ShardedEngine* const sharded = server->sharded_engine();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      // Round-robin pinning: session i belongs to worker i % workers.
      std::vector<SessionDriver*> mine;
      for (size_t i = w; i < drivers.size(); i += workers) {
        mine.push_back(drivers[i].get());
      }
      OpBatch batch;
      std::vector<size_t> order;
      // Per-session wait backoff: a session whose op keeps hitting an
      // uncommitted writer sits out exponentially more rounds between
      // retries (reset on any progress). This bounds the retry traffic —
      // and the kWait trace events — per blocked operation to
      // O(log rounds) even when the blocking writer's worker is
      // descheduled for a long stretch.
      std::vector<int> defer(mine.size(), 0);
      std::vector<int> streak(mine.size(), 0);
      // Abort backoff is randomized *wall-clock* time, not rounds. With
      // zero think time a resubmission loop calls Begin faster than once
      // per microsecond, so TimestampGenerator's strict monotonicity
      // (max(now, last+1)) pushes the session's logical clock ahead of
      // wall time; two colliding sessions then leapfrog each other in
      // pure logical time — every re-begun write lands timestamp-adjacent
      // to the other session's latest read and aborts late, forever.
      // Deferring in wall microseconds bounds each session's begin rate
      // to at most one per microsecond, which pins the generators back to
      // the wall clock and lets real time separate the contenders. The
      // rng is seeded per worker so runs stay reproducible.
      std::vector<int64_t> not_before_us(mine.size(), 0);
      std::vector<int> abort_streak(mine.size(), 0);
      Rng backoff_rng(options.seed * 0x9E3779B9u + w + 1);
      // All workers share one contention site: the interesting signal
      // is total time the pool spent backing off, not which worker
      // happened to yield.
      ContentionSite* const backoff_site =
          GlobalProfiler().site("session.wait_backoff");
      constexpr int kMaxDeferRounds = 64;
      while (true) {
        batch.reqs.clear();
        order.clear();
        size_t live = 0;
        int64_t now_us = -1;
        for (size_t j = 0; j < mine.size(); ++j) {
          if (mine[j]->finished()) continue;
          ++live;
          if (defer[j] > 0) {
            --defer[j];
            continue;
          }
          if (not_before_us[j] > 0) {
            if (now_us < 0) now_us = NowMicros();
            if (now_us < not_before_us[j]) continue;
            not_before_us[j] = 0;
          }
          OpRequest req;
          if (mine[j]->NextOp(&req)) {
            batch.reqs.push_back(req);
            order.push_back(j);
          }
        }
        if (live == 0) break;  // every session finished
        if (options.op_delay_us > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(options.op_delay_us));
        }
        if (batch.reqs.empty()) {
          // Everyone is sitting out a backoff round; yield the core to
          // the workers serving the blocking writers. yield() (not a
          // timed sleep) matters on few-core hosts: a 50us sleep_for
          // costs ~2-3x that in timer slack, while yield reschedules the
          // blocking writer's worker immediately. The yield is charged
          // to the shared backoff site as kLockWait so stalled-pool
          // rounds surface in the wall-clock attribution.
          ScopedPhaseTimer wait_phase(ProfilePhase::kLockWait);
          ScopedSiteWait wait(backoff_site, kInvalidTxnId);
          std::this_thread::yield();
          continue;
        }
        bool progressed = false;
        if (sharded != nullptr) {
          sharded->ExecuteBatch(batch);
        } else {
          // Any other engine: identical schedule, per-op submission.
          batch.results.resize(batch.reqs.size());
          for (size_t i = 0; i < batch.reqs.size(); ++i) {
            const OpRequest& req = batch.reqs[i];
            batch.results[i] =
                req.is_write ? server->Write(req.txn, req.object, req.value)
                             : server->Read(req.txn, req.object);
          }
        }
        for (size_t i = 0; i < order.size(); ++i) {
          const size_t j = order[i];
          if (batch.results[i].kind == OpResult::Kind::kWait) {
            streak[j] = std::min(streak[j] * 2 + 1, kMaxDeferRounds);
            defer[j] = streak[j];
          } else if (batch.results[i].kind == OpResult::Kind::kAbort) {
            // Randomized exponential backoff, 1..64us, before the
            // resubmission's Begin (see not_before_us above).
            abort_streak[j] = std::min(abort_streak[j] + 1, 6);
            not_before_us[j] =
                NowMicros() + 1 +
                backoff_rng.UniformInt(0, (1 << abort_streak[j]) - 1);
            streak[j] = 0;
            progressed = true;
          } else {
            streak[j] = 0;
            abort_streak[j] = 0;
            progressed = true;
          }
          mine[j]->OnResult(batch.results[i]);
        }
        if (!progressed) {
          // Every submitted op waited: cede the core so the blocking
          // writers' workers can run and commit.
          ScopedPhaseTimer wait_phase(ProfilePhase::kLockWait);
          ScopedSiteWait wait(backoff_site, kInvalidTxnId);
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  SessionPoolResult result;
  result.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.per_session.reserve(drivers.size());
  for (const auto& driver : drivers) {
    result.per_session.push_back(driver->stats());
    result.total.committed += driver->stats().committed;
    result.total.aborts += driver->stats().aborts;
    result.total.waits += driver->stats().waits;
  }
  return result;
}

}  // namespace esr
