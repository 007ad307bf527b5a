#ifndef ESR_TXN_SERVER_H_
#define ESR_TXN_SERVER_H_

#include <memory>

#include "common/logging.h"
#include "common/metrics.h"
#include "engine/sharded/sharded_engine.h"
#include "hierarchy/group_schema.h"
#include "storage/object_store.h"
#include "txn/engine.h"

namespace esr {

/// Configuration of the transaction server.
struct ServerOptions {
  ObjectStoreOptions store;
  DivergenceOptions divergence;
  /// Concurrency-control protocol (default: the paper's TO-based ESR).
  EngineKind engine = EngineKind::kTimestampOrdering;
  /// Sharding configuration; only read when engine == kSharded (the
  /// kTimestampOrdering engine is the same ShardedEngine with one shard).
  ShardedEngineOptions sharded;
};

/// The central transaction server of the prototype (Sec. 6): front-end
/// scheduler, transaction manager, and data manager over a main-memory
/// object store, with the group hierarchy and the metric registry that the
/// performance tests read.
///
/// The scheduler of the prototype "receives transaction requests from the
/// clients and schedules the operations based on timestamp ordering by
/// submitting it to the transaction manager" — here the Begin/Read/Write/
/// Commit/Abort entry points, which are exactly the five basic operations
/// the prototype supports.
class Server {
 public:
  explicit Server(const ServerOptions& options);

  /// The group hierarchy is server metadata, set up before clients run
  /// (mutable while no transactions are active).
  GroupSchema& schema() { return schema_; }
  const GroupSchema& schema() const { return schema_; }

  /// The record of object `id`, for loaders, examples and tests
  /// (quiescent only: no latch is taken). Every engine but MVTO, which
  /// keeps version chains instead, has one.
  ObjectRecord& object(ObjectId id);
  bool ContainsObject(ObjectId id) const {
    return static_cast<size_t>(id) < options_.store.num_objects;
  }
  /// Sum of every object's present value (quiescent only; not on MVTO).
  Value TotalValue();

  /// The selected concurrency-control engine.
  TransactionEngine& engine() { return *engine_; }
  const TransactionEngine& engine() const { return *engine_; }

  /// The TO engine (kTimestampOrdering with one shard, or kSharded), or
  /// nullptr on 2PL and MVTO — callers branch on this for import-enabled
  /// begins, batched submission and shard telemetry.
  ShardedEngine* sharded_engine() { return sharded_; }

  MetricRegistry& metrics() { return metrics_; }

  const ServerOptions& options() const { return options_; }

  // -- The five basic operations (Sec. 6) ---------------------------------
  TxnId Begin(TxnType type, Timestamp ts, const BoundSpec& bounds) {
    return engine_->Begin(type, ts, bounds);
  }
  OpResult Read(TxnId txn, ObjectId object) {
    return engine_->Read(txn, object);
  }
  OpResult Write(TxnId txn, ObjectId object, Value value) {
    return engine_->Write(txn, object, value);
  }
  Status Commit(TxnId txn) { return engine_->Commit(txn); }
  Status Abort(TxnId txn) { return engine_->Abort(txn); }

 private:
  ServerOptions options_;
  GroupSchema schema_;
  MetricRegistry metrics_;
  /// The 2PL engine's store; the TO engines own theirs per shard and
  /// MVTO keeps versions.
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<TransactionEngine> engine_;
  ShardedEngine* sharded_ = nullptr;
};

}  // namespace esr

#endif  // ESR_TXN_SERVER_H_
