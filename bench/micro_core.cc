// Microbenchmarks of the engine's core primitives: object access, proper
// value lookup, the timestamp-ordering decision, hierarchical charge, and
// a full transaction round trip through the one-shard ShardedEngine that
// runs the paper's TO scheduler.

#include <benchmark/benchmark.h>

#include "cc/to_policy.h"
#include "common/random.h"
#include "hierarchy/accumulator.h"
#include "storage/object_store.h"
#include "engine/sharded/sharded_engine.h"

namespace esr {
namespace {

ObjectStoreOptions StoreOpt() {
  ObjectStoreOptions opt;
  opt.num_objects = 1000;
  opt.seed = 1;
  return opt;
}

/// The production TO engine: the sharded engine with one shard.
ShardedEngineOptions OneShard() {
  ShardedEngineOptions options;
  options.num_shards = 1;
  return options;
}

void BM_ObjectStoreRead(benchmark::State& state) {
  ObjectStore store(StoreOpt());
  Rng rng(7);
  for (auto _ : state) {
    const ObjectId id = static_cast<ObjectId>(rng.UniformInt(0, 999));
    benchmark::DoNotOptimize(store.Get(id).value());
  }
}
BENCHMARK(BM_ObjectStoreRead);

void BM_HistoryRecordAndLookup(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  WriteHistory history(depth);
  int64_t t = 0;
  Rng rng(7);
  for (auto _ : state) {
    history.Record(Timestamp{++t, 0}, rng.UniformInt(1000, 9999));
    benchmark::DoNotOptimize(
        history.ProperValueBefore(Timestamp{t - rng.UniformInt(0, 30), 0}));
  }
}
BENCHMARK(BM_HistoryRecordAndLookup)->Arg(5)->Arg(20)->Arg(64);

void BM_DecideRead(benchmark::State& state) {
  ObjectRecord obj(1, 1000, 20);
  obj.ApplyWrite(9, Timestamp{50, 0}, 1100);
  obj.CommitWrite(9);
  const TxnView query{2, TxnType::kQuery, Timestamp{20, 0}, true};
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecideRead(query, obj));
  }
}
BENCHMARK(BM_DecideRead);

void BM_DecideWrite(benchmark::State& state) {
  ObjectRecord obj(1, 1000, 20);
  obj.NoteQueryRead(Timestamp{50, 0});
  const TxnView update{2, TxnType::kUpdate, Timestamp{20, 0}, true};
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecideWrite(update, obj));
  }
}
BENCHMARK(BM_DecideWrite);

void BM_AccumulatorCharge(benchmark::State& state) {
  GroupSchema schema;
  const GroupId g = *schema.AddGroup("g", kRootGroup);
  for (ObjectId id = 0; id < 100; ++id) {
    (void)schema.AssignObject(id, g);
  }
  InconsistencyAccumulator acc(&schema,
                               BoundSpec::TransactionOnly(kUnbounded));
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        acc.TryCharge(static_cast<ObjectId>(rng.UniformInt(0, 99)), 1.0));
  }
}
BENCHMARK(BM_AccumulatorCharge);

void BM_FullQueryTransaction(benchmark::State& state) {
  GroupSchema schema;
  MetricRegistry metrics;
  ShardedEngine manager(OneShard(), StoreOpt(), &schema, &metrics);
  TimestampGenerator ts_gen(1);
  int64_t clock = 0;
  Rng rng(7);
  const int64_t reads = state.range(0);
  for (auto _ : state) {
    const TxnId txn = manager.Begin(TxnType::kQuery, ts_gen.Next(++clock),
                                    BoundSpec::TransactionOnly(100000));
    for (int64_t i = 0; i < reads; ++i) {
      benchmark::DoNotOptimize(
          manager.Read(txn, static_cast<ObjectId>(rng.UniformInt(0, 999))));
    }
    benchmark::DoNotOptimize(manager.Commit(txn));
  }
  state.SetItemsProcessed(state.iterations() * (reads + 2));
}
BENCHMARK(BM_FullQueryTransaction)->Arg(8)->Arg(20);

void BM_FullUpdateTransaction(benchmark::State& state) {
  GroupSchema schema;
  MetricRegistry metrics;
  ShardedEngine manager(OneShard(), StoreOpt(), &schema, &metrics);
  TimestampGenerator ts_gen(1);
  int64_t clock = 0;
  Rng rng(7);
  for (auto _ : state) {
    const TxnId txn = manager.Begin(TxnType::kUpdate, ts_gen.Next(++clock),
                                    BoundSpec::TransactionOnly(10000));
    const ObjectId a = static_cast<ObjectId>(rng.UniformInt(0, 999));
    const ObjectId b = static_cast<ObjectId>(rng.UniformInt(0, 999));
    const OpResult r = manager.Read(txn, a);
    if (r.ok()) {
      (void)manager.Write(txn, b, r.value + 100);
    }
    if (manager.IsActive(txn)) {
      benchmark::DoNotOptimize(manager.Commit(txn));
    }
  }
}
BENCHMARK(BM_FullUpdateTransaction);

}  // namespace
}  // namespace esr

BENCHMARK_MAIN();
