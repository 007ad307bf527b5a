#ifndef ESR_TESTS_TESTING_TEST_UTIL_H_
#define ESR_TESTS_TESTING_TEST_UTIL_H_

#include <memory>

#include "common/metrics.h"
#include "engine/sharded/sharded_engine.h"
#include "hierarchy/group_schema.h"
#include "storage/object_store.h"

namespace esr {
namespace testing {

inline Timestamp Ts(int64_t t) { return Timestamp{t, 0}; }

/// The production TO engine's configuration: the sharded engine with one
/// shard, whose local object ids are the global ids.
inline ShardedEngineOptions OneShard() {
  ShardedEngineOptions options;
  options.num_shards = 1;
  return options;
}

/// A small production TO engine with deterministic object values: object
/// i holds 1000 * (i + 1). Gives tests exact arithmetic over
/// proper/present values.
struct EngineFixture {
  GroupSchema schema;
  MetricRegistry metrics;
  ShardedEngine manager;
  /// The engine's one store slice (object ids are global ids).
  ObjectStore& store;

  static ObjectStoreOptions StoreOptions(size_t n, size_t history_depth) {
    ObjectStoreOptions opt;
    opt.num_objects = n;
    opt.history_depth = history_depth;
    opt.seed = 7;
    return opt;
  }

  explicit EngineFixture(size_t num_objects = 10, size_t history_depth = 20,
                         DivergenceOptions divergence = {})
      : manager(OneShard(), StoreOptions(num_objects, history_depth),
                &schema, &metrics, divergence),
        store(manager.shard(0).store()) {
    for (ObjectId id = 0; id < num_objects; ++id) {
      SetValue(id, static_cast<Value>(1000 * (id + 1)));
    }
  }

  /// The data manager measuring divergence against `store`.
  DataManager& data_manager() { return manager.shard(0).data(); }

  /// Directly installs a committed value older than every timestamp.
  void SetValue(ObjectId id, Value v) {
    ObjectRecord& rec = store.Get(id);
    rec.ApplyWrite(UINT64_MAX, Timestamp::Min(), v);
    rec.CommitWrite(UINT64_MAX);
  }

  /// Runs a complete single-object update ET: begin(ts), write, commit.
  void CommitWrite(int64_t ts, ObjectId object, Value v,
                   Inconsistency tel = kUnbounded) {
    const TxnId txn = manager.Begin(TxnType::kUpdate, Ts(ts),
                                    BoundSpec::TransactionOnly(tel));
    const OpResult r = manager.Write(txn, object, v);
    ASSERT_EQ(r.kind, OpResult::Kind::kOk) << "seed write failed";
    ASSERT_TRUE(manager.Commit(txn).ok());
  }
};

}  // namespace testing
}  // namespace esr

#endif  // ESR_TESTS_TESTING_TEST_UTIL_H_
