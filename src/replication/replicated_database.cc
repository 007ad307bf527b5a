#include "replication/replicated_database.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/logging.h"

namespace esr {

ReplicatedDatabase::ReplicatedDatabase(const ReplicationOptions& replication,
                                       Server* primary)
    : options_(replication), primary_(primary) {
  ESR_CHECK(primary_ != nullptr);
  ESR_CHECK(options_.num_replicas >= 1);
  const size_t num_objects = primary_->options().store.num_objects;
  replicas_.resize(static_cast<size_t>(options_.num_replicas));
  for (ReplicaState& replica : replicas_) {
    replica.values.resize(num_objects);
    for (ObjectId id = 0; id < num_objects; ++id) {
      replica.values[id] = primary_->object(id).value();
    }
  }
}

Status ReplicatedDatabase::Commit(TxnId txn, SimTime now) {
  // Each pending write sits in place with its shadow pre-image; strict
  // ordering admits no other writer on the object meanwhile, so the
  // shadow is the committed value the write replaced.
  committing_.clear();
  if (const Transaction* t = primary_->engine().Find(txn)) {
    for (const ObjectId object : t->pending_writes()) {
      const ObjectRecord& rec = primary_->object(object);
      committing_.push_back(QueuedWrite{
          object, rec.value(),
          static_cast<Inconsistency>(
              std::llabs(rec.value() - rec.shadow_value())),
          now});
    }
  }
  ESR_RETURN_NOT_OK(primary_->Commit(txn));
  for (ReplicaState& replica : replicas_) {
    for (const QueuedWrite& write : committing_) {
      replica.queue.push_back(write);
      replica.pending_weight[write.object] += write.weight;
    }
  }
  return Status::OK();
}

void ReplicatedDatabase::ApplyFront(ReplicaState* replica) {
  const QueuedWrite& write = replica->queue.front();
  replica->values[write.object] = write.new_value;
  auto it = replica->pending_weight.find(write.object);
  ESR_CHECK(it != replica->pending_weight.end());
  it->second -= write.weight;
  if (it->second <= 1e-9) replica->pending_weight.erase(it);
  replica->queue.pop_front();
}

void ReplicatedDatabase::AdvanceTo(SimTime now) {
  const SimTime delay = static_cast<SimTime>(
      options_.propagation_delay_ms * kMicrosPerMilli);
  for (ReplicaState& replica : replicas_) {
    while (!replica.queue.empty() &&
           replica.queue.front().committed_at + delay <= now) {
      ApplyFront(&replica);
    }
  }
}

void ReplicatedDatabase::SyncReplica(int replica) {
  ESR_CHECK(replica >= 0 && replica < options_.num_replicas);
  ReplicaState& state = replicas_[static_cast<size_t>(replica)];
  while (!state.queue.empty()) ApplyFront(&state);
}

Inconsistency ReplicatedDatabase::DivergenceEstimate(int replica,
                                                     ObjectId object) const {
  ESR_CHECK(replica >= 0 && replica < options_.num_replicas);
  const ReplicaState& state = replicas_[static_cast<size_t>(replica)];
  auto it = state.pending_weight.find(object);
  return it == state.pending_weight.end() ? 0.0 : it->second;
}

size_t ReplicatedDatabase::PendingWrites(int replica) const {
  ESR_CHECK(replica >= 0 && replica < options_.num_replicas);
  return replicas_[static_cast<size_t>(replica)].queue.size();
}

Value ReplicatedDatabase::PeekReplica(int replica, ObjectId object) const {
  ESR_CHECK(replica >= 0 && replica < options_.num_replicas);
  const std::vector<Value>& values =
      replicas_[static_cast<size_t>(replica)].values;
  ESR_CHECK(static_cast<size_t>(object) < values.size())
      << "object " << object << " out of range";
  return values[object];
}

Result<ReplicatedDatabase::ReplicaRead> ReplicatedDatabase::ReadAtReplica(
    int replica, ObjectId object, Inconsistency budget) {
  if (replica < 0 || replica >= options_.num_replicas) {
    return Status::NotFound("replica " + std::to_string(replica));
  }
  if (!primary_->ContainsObject(object)) {
    return Status::NotFound("object " + std::to_string(object));
  }
  const Inconsistency estimate = DivergenceEstimate(replica, object);
  if (estimate > budget) {
    return Status::BoundViolation(
        "replica divergence estimate " + std::to_string(estimate) +
        " exceeds budget " + std::to_string(budget));
  }
  ReplicaRead read;
  read.value = replicas_[static_cast<size_t>(replica)].values[object];
  read.estimated_divergence = estimate;
  // Instrumentation: exact divergence against the primary's committed
  // state. An uncommitted primary write is not yet queued, so compare
  // against the shadow-free committed value via the history.
  const ObjectRecord& rec = primary_->object(object);
  const Value primary_committed =
      rec.has_uncommitted_write()
          ? rec.ProperValueFor(Timestamp::Max()).value_or(rec.value())
          : rec.value();
  read.true_divergence = static_cast<Inconsistency>(
      std::llabs(primary_committed - read.value));
  return read;
}

Result<ReplicatedDatabase::ReplicaQueryResult>
ReplicatedDatabase::ReplicaSumQuery(int replica,
                                    const std::vector<ObjectId>& objects,
                                    Inconsistency til) {
  if (objects.empty()) {
    return Status::InvalidArgument("query over zero objects");
  }
  ReplicaQueryResult result;
  for (const ObjectId object : objects) {
    // Remaining budget for this read (Sec. 5.1 accumulation).
    const Inconsistency remaining = til - result.estimated_import;
    auto read = ReadAtReplica(replica, object, remaining);
    if (!read.ok()) return read.status();
    result.sum += static_cast<double>(read->value);
    result.estimated_import += read->estimated_divergence;
    result.true_import += read->true_divergence;
    ++result.objects_read;
  }
  return result;
}

}  // namespace esr
