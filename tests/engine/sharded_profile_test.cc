// The sharded engine's hot paths must feed the wall-clock profiler:
// shard latches are ContentionSites, a commit's write install is a
// kApply scope nested under its kCommit, abort teardown
// books as kCommit, and the session pool's retry backoff charges
// kLockWait against the shared session.wait_backoff site. A profiled
// sharded run therefore produces a non-empty phase attribution — the
// PR 6 contention profiler works on the multi-threaded engine, not
// just the thread-per-client server.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "engine/sharded/session.h"
#include "engine/sharded/sharded_engine.h"
#include "obs/profile.h"
#include "txn/server.h"
#include "workload/spec.h"

namespace esr {
namespace {

#ifndef ESR_TRACE_DISABLED

TEST(ShardedProfileTest, SessionRunPopulatesPhasesAndSites) {
  GlobalProfiler().Reset();
  GlobalProfiler().set_enabled(true);

  ServerOptions opt;
  opt.engine = EngineKind::kSharded;
  opt.sharded.num_shards = 4;
  opt.store.num_objects = 64;
  opt.store.seed = 5;
  Server server(opt);
  ASSERT_NE(server.sharded_engine(), nullptr);

  WorkloadSpec spec;
  spec.num_objects = 64;
  SessionPoolOptions pool;
  pool.sessions = 8;
  pool.txns_per_session = 200;
  pool.workers = 4;
  pool.seed = 11;
  const SessionPoolResult result = RunSessionWorkers(&server, spec, pool);
  EXPECT_GT(result.total.committed, 0);

  GlobalProfiler().set_enabled(false);
  const ProfileSnapshot snap = GlobalProfiler().Snapshot();

  // Commit and apply scopes ran: every commit installs its own writes
  // under a kApply scope.
  const PhaseSnapshot& commit =
      snap.phases[static_cast<size_t>(ProfilePhase::kCommit)];
  const PhaseSnapshot& apply =
      snap.phases[static_cast<size_t>(ProfilePhase::kApply)];
  EXPECT_GT(commit.count, 0u);
  EXPECT_GT(apply.count, 0u);

  // Shard latches registered as contention sites and were acquired.
  uint64_t latch_acquisitions = 0;
  bool backoff_site_seen = false;
  for (const ContentionSite::Snapshot& site : snap.sites) {
    if (site.name.rfind("engine.shard", 0) == 0 &&
        site.name.find(".latch") != std::string::npos) {
      latch_acquisitions += site.acquisitions;
    }
    if (site.name == "session.wait_backoff") backoff_site_seen = true;
  }
  EXPECT_GT(latch_acquisitions, 0u)
      << "shard latches must profile as contention sites";
  EXPECT_TRUE(backoff_site_seen)
      << "the worker pool must register its shared backoff site";

  GlobalProfiler().Reset();
}

#endif  // ESR_TRACE_DISABLED

}  // namespace
}  // namespace esr
