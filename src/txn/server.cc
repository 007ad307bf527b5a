#include "txn/server.h"

#include "common/logging.h"
#include "mvto/mvto_manager.h"
#include "twopl/twopl_manager.h"

namespace esr {

Server::Server(const ServerOptions& options) : options_(options) {
  switch (options_.engine) {
    case EngineKind::kTimestampOrdering:
    case EngineKind::kSharded: {
      ShardedEngineOptions sharded = options_.sharded;
      if (options_.engine == EngineKind::kTimestampOrdering) {
        sharded.num_shards = 1;
      }
      auto engine = std::make_unique<ShardedEngine>(
          sharded, options_.store, &schema_, &metrics_, options_.divergence);
      sharded_ = engine.get();
      engine_ = std::move(engine);
      break;
    }
    case EngineKind::kTwoPhaseLocking:
      store_ = std::make_unique<ObjectStore>(options_.store);
      engine_ = std::make_unique<TwoPLManager>(
          store_.get(), &schema_, &metrics_, options_.divergence);
      break;
    case EngineKind::kMultiversion:
      engine_ = std::make_unique<MvtoManager>(options_.store, &schema_,
                                              &metrics_);
      break;
  }
  ESR_CHECK(engine_ != nullptr);
}

ObjectRecord& Server::object(ObjectId id) {
  ESR_CHECK(ContainsObject(id)) << "object " << id << " out of range";
  if (sharded_ != nullptr) return sharded_->ObjectAt(id);
  ESR_CHECK(store_ != nullptr) << "no single-version store on this engine";
  return store_->Get(id);
}

Value Server::TotalValue() {
  if (sharded_ != nullptr) return sharded_->TotalValue();
  ESR_CHECK(store_ != nullptr) << "no single-version store on this engine";
  return store_->TotalValue();
}

}  // namespace esr
