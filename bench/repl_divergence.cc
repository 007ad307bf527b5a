// Replication extension (the paper's stated future work: "evaluate ESR in
// the case of a distributed system with data replication"). A primary
// runs the paper's update stream while read-only replicas lag by a
// propagation delay; replica queries carry an import budget checked
// against the conservative divergence estimate (sum of unapplied write
// weights). The table shows the freshness/availability trade-off: longer
// lags mean more rejected bounded queries and more staleness absorbed by
// the admitted ones.

#include "harness/harness.h"

#include <cstdio>

#include "common/random.h"
#include "replication/replicated_database.h"
#include "workload/generator.h"

namespace {

using esr::BoundSpec;
using esr::Inconsistency;
using esr::kMicrosPerMilli;
using esr::ObjectId;
using esr::OpResult;
using esr::ReplicatedDatabase;
using esr::ReplicationOptions;
using esr::Rng;
using esr::ScriptOp;
using esr::ServerOptions;
using esr::SimTime;
using esr::Timestamp;
using esr::TxnId;
using esr::TxnScript;
using esr::TxnType;
using esr::WorkloadGenerator;
using esr::WorkloadSpec;
using esr::bench::Table;

struct Outcome {
  double admitted_fraction = 0.0;
  double avg_true_staleness = 0.0;
  double avg_estimate = 0.0;
};

Outcome RunOnce(double delay_ms, Inconsistency til, uint64_t seed) {
  ReplicationOptions replication;
  replication.num_replicas = 2;
  replication.propagation_delay_ms = delay_ms;
  ServerOptions server;
  server.store.num_objects = 1000;
  esr::Server primary(server);
  ReplicatedDatabase db(replication, &primary);

  WorkloadSpec spec;
  WorkloadGenerator generator(spec, seed);
  Rng rng(seed ^ 0xabcd);
  SimTime now = 0;
  int64_t ts_counter = 1;

  int admitted = 0, attempted = 0;
  double staleness = 0, estimates = 0;

  for (int round = 0; round < 400; ++round) {
    // One primary update ET (committed immediately; the primary itself is
    // exercised end-to-end in the main benches).
    const TxnScript update = generator.NextUpdate();
    const TxnId txn = primary.Begin(TxnType::kUpdate,
                                    Timestamp{ts_counter++, 1},
                                    update.bounds);
    std::vector<esr::Value> reads;
    bool aborted = false;
    for (const ScriptOp& op : update.ops) {
      OpResult r;
      if (op.kind == ScriptOp::Kind::kRead) {
        r = primary.Read(txn, op.object);
        if (r.ok()) reads.push_back(r.value);
      } else {
        r = primary.Write(txn, op.object,
                          esr::ApplyDeltaReflecting(
                              reads[static_cast<size_t>(op.source_read)],
                              op.delta, spec.min_value, spec.max_value));
      }
      if (!r.ok()) {
        aborted = true;
        break;
      }
    }
    if (!aborted) (void)db.Commit(txn, now);
    else if (primary.engine().IsActive(txn)) (void)primary.Abort(txn);

    // Time advances ~ one update per 150 ms of virtual time.
    now += 150 * kMicrosPerMilli;
    db.AdvanceTo(now);

    // A bounded replica sum query over part of the hot set.
    std::vector<ObjectId> objects;
    for (ObjectId id = 0; id < 10; ++id) objects.push_back(id);
    const int replica = static_cast<int>(rng.UniformInt(0, 1));
    ++attempted;
    const auto q = db.ReplicaSumQuery(replica, objects, til);
    if (q.ok()) {
      ++admitted;
      staleness += q->true_import;
      estimates += q->estimated_import;
    }
  }

  Outcome outcome;
  outcome.admitted_fraction =
      static_cast<double>(admitted) / static_cast<double>(attempted);
  if (admitted > 0) {
    outcome.avg_true_staleness = staleness / admitted;
    outcome.avg_estimate = estimates / admitted;
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  esr::bench::TraceCapture trace_capture(argc, argv);
  std::printf(
      "=== Replication: bounded replica queries vs propagation lag ===\n");
  std::printf(
      "Extension (paper Sec. 9 future work); 10-object replica sum "
      "queries, TIL in value units.\n\n");

  const double delays[] = {0, 50, 200, 500, 2000};
  const Inconsistency tils[] = {0, 2'000, 10'000, esr::kUnbounded};
  const char* til_names[] = {"TIL=0(SR)", "TIL=2k", "TIL=10k", "TIL=inf"};

  Table admit({"delay(ms)", "TIL=0(SR)", "TIL=2k", "TIL=10k", "TIL=inf"});
  Table stale({"delay(ms)", "TIL=2k", "TIL=10k", "TIL=inf"});
  for (const double delay : delays) {
    std::vector<std::string> admit_row{Table::Int(delay)};
    std::vector<std::string> stale_row{Table::Int(delay)};
    for (size_t i = 0; i < 4; ++i) {
      const Outcome outcome = RunOnce(delay, tils[i], 7);
      admit_row.push_back(Table::Num(outcome.admitted_fraction, 2));
      if (i > 0) {
        stale_row.push_back(Table::Num(outcome.avg_true_staleness, 0));
      }
      (void)til_names;
    }
    admit.AddRow(admit_row);
    stale.AddRow(stale_row);
  }
  std::printf("Fraction of replica queries admitted:\n");
  admit.Print();
  std::printf("\nAvg TRUE staleness absorbed by admitted queries "
              "(always <= the conservative estimate <= TIL):\n");
  stale.Print();
  return 0;
}
