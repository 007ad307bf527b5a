// Ablation: the cost of hierarchical inconsistency control. The paper
// notes that "hierarchical specification and control does not come free
// of charge and a small price is to be paid" (Sec. 3.1); this bench
// measures that price — the per-operation charge cost and the end-to-end
// transaction cost as a function of the hierarchy depth.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "hierarchy/accumulator.h"
#include "storage/object_store.h"
#include "engine/sharded/sharded_engine.h"

namespace esr {
namespace {

// Builds a schema where every object sits under a chain of `depth - 1`
// groups below the root (depth == 1 means objects directly at the root,
// i.e. the flat two-level system of the paper's prototype).
GroupSchema MakeChainSchema(int depth, size_t num_objects) {
  GroupSchema schema;
  GroupId parent = kRootGroup;
  for (int level = 1; level < depth; ++level) {
    parent = *schema.AddGroup("level" + std::to_string(level), parent);
  }
  for (ObjectId id = 0; id < num_objects; ++id) {
    (void)schema.AssignObject(id, parent);
  }
  return schema;
}

void BM_ChargeAtDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  GroupSchema schema = MakeChainSchema(depth, 100);
  BoundSpec bounds;
  bounds.SetTransactionLimit(kUnbounded);
  InconsistencyAccumulator acc(&schema, bounds);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        acc.TryCharge(static_cast<ObjectId>(rng.UniformInt(0, 99)), 1.0));
  }
}
BENCHMARK(BM_ChargeAtDepth)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(6)->Arg(8);

void BM_InconsistentReadAtDepth(benchmark::State& state) {
  // End-to-end: an ESR query read that goes through the full relaxation
  // path (proper-value lookup + object check + hierarchical charge),
  // against a store whose every object is stale relative to the query.
  const int depth = static_cast<int>(state.range(0));
  ObjectStoreOptions store_opt;
  store_opt.num_objects = 100;
  store_opt.seed = 1;
  GroupSchema schema = MakeChainSchema(depth, 100);
  MetricRegistry metrics;
  // The production TO engine: the sharded engine with one shard.
  ShardedEngineOptions one_shard;
  one_shard.num_shards = 1;
  ShardedEngine manager(one_shard, store_opt, &schema, &metrics);
  TimestampGenerator ts_gen(1);
  int64_t clock = 1'000'000;

  // Give every object a committed write at ts 500k so queries below that
  // are late (relaxation case 1).
  for (ObjectId id = 0; id < 100; ++id) {
    const TxnId u = manager.Begin(TxnType::kUpdate, Timestamp{500'000, 9},
                                  BoundSpec());
    (void)manager.Write(u, id, 5000 + id);
    (void)manager.Commit(u);
  }

  Rng rng(7);
  for (auto _ : state) {
    const TxnId q = manager.Begin(TxnType::kQuery, Timestamp{400'000, 1},
                                  BoundSpec::TransactionOnly(kUnbounded));
    for (int i = 0; i < 8; ++i) {
      benchmark::DoNotOptimize(
          manager.Read(q, static_cast<ObjectId>(rng.UniformInt(0, 99))));
    }
    (void)manager.Commit(q);
    ++clock;
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_InconsistentReadAtDepth)->Arg(1)->Arg(2)->Arg(4)->Arg(6);

}  // namespace
}  // namespace esr

BENCHMARK_MAIN();
