// Replicated reporting: the distributed-data direction the paper's
// conclusion points at. A primary keeps committing updates while two
// read-only replicas lag behind it; report queries run at the replicas
// with an import budget checked against each replica's conservative
// divergence estimate (the sum of unapplied write magnitudes — an upper
// bound on the true divergence by the metric-space triangle inequality).
//
// Build & run:  ./build/examples/replicated_reporting

#include <cstdio>
#include <vector>

#include "common/random.h"
#include "replication/replicated_database.h"

namespace {

constexpr esr::ObjectId kAccounts = 50;

}  // namespace

int main() {
  esr::ReplicationOptions replication;
  replication.num_replicas = 2;
  replication.propagation_delay_ms = 250;
  esr::ServerOptions server;
  server.store.num_objects = kAccounts;
  esr::Server primary(server);
  esr::ReplicatedDatabase db(replication, &primary);

  std::vector<esr::ObjectId> all;
  for (esr::ObjectId id = 0; id < kAccounts; ++id) all.push_back(id);

  // A stream of primary updates over simulated time.
  esr::Rng rng(12);
  esr::SimTime now = 0;
  int64_t ts = 1;
  int committed = 0;
  auto run_updates = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const esr::ObjectId account =
          static_cast<esr::ObjectId>(rng.UniformInt(0, kAccounts - 1));
      const esr::TxnId txn = primary.Begin(esr::TxnType::kUpdate,
                                           esr::Timestamp{ts++, 1},
                                           esr::BoundSpec());
      const esr::OpResult r = primary.Read(txn, account);
      if (r.ok() &&
          primary.Write(txn, account, r.value + rng.UniformInt(-300, 300))
              .ok()) {
        if (db.Commit(txn, now).ok()) ++committed;
      } else if (primary.engine().IsActive(txn)) {
        (void)primary.Abort(txn);
      }
      now += 40 * esr::kMicrosPerMilli;  // one update every 40 ms
      db.AdvanceTo(now);
    }
  };

  auto report = [&](int replica, esr::Inconsistency til) {
    const auto q = db.ReplicaSumQuery(replica, all, til);
    if (q.ok()) {
      std::printf(
          "  replica %d, TIL %6.0f : total=%10.0f  estimate=%6.0f  "
          "true staleness=%6.0f\n",
          replica, til, q->sum, q->estimated_import, q->true_import);
    } else {
      std::printf("  replica %d, TIL %6.0f : REJECTED (%s)\n", replica, til,
                  q.status().ToString().c_str());
    }
  };

  std::printf("burst of 40 primary updates (replicas lag by 250 ms)...\n");
  run_updates(40);
  std::printf("%d updates committed; replica queue depths: %zu / %zu\n\n",
              committed, db.PendingWrites(0), db.PendingWrites(1));

  std::printf("reports while replicas lag:\n");
  report(0, 0);        // SR: demands full freshness
  report(0, 500);      // tight budget
  report(0, 5'000);    // loose budget
  report(1, 5'000);

  std::printf("\nafter the propagation pipeline drains:\n");
  now += 300 * esr::kMicrosPerMilli;
  db.AdvanceTo(now);
  report(0, 0);  // now fully fresh: even the SR report succeeds
  const esr::Value primary_total = primary.TotalValue();
  std::printf("\nprimary total for comparison: %lld\n",
              static_cast<long long>(primary_total));
  return 0;
}
