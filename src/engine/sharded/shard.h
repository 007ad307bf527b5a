#ifndef ESR_ENGINE_SHARDED_SHARD_H_
#define ESR_ENGINE_SHARDED_SHARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/timestamp.h"
#include "common/types.h"
#include "hierarchy/accumulator.h"
#include "obs/profile.h"
#include "storage/object_store.h"
#include "txn/data_manager.h"

namespace esr {

/// Multi-field per-shard statistics, mutated only under the shard latch so
/// a snapshot taken under the same latch is internally consistent (the
/// torn-read regression test scrapes these while commits land). The
/// fields form a monotone chain every consistent snapshot satisfies:
///
///   applied_writes >= committed_writes >= committed_writers
///
/// (every writer commits >= 1 write, and every committed write was first
/// applied as a shadow install).
struct ShardStats {
  int64_t ops = 0;             ///< Read/Write ops served under the latch.
  int64_t waits = 0;           ///< Ops answered kWait (strict ordering).
  int64_t applied_writes = 0;  ///< Shadow installs (ApplyWrite calls).
  int64_t committed_writes = 0;
  int64_t committed_writers = 0;  ///< Distinct txns with commits here.
};

/// One committed write, in the order the shard committed it. With
/// record_commit_log on, the stress harness replays each shard's log and
/// asserts the TO invariant: per object, committed write timestamps are
/// strictly increasing — no committed write is ever observed out of
/// timestamp order.
struct CommitLogEntry {
  ObjectId object = kInvalidObjectId;  ///< Global id.
  TxnId txn = kInvalidTxnId;
  Timestamp ts;
};

/// One partition of the sharded engine: a private latch, a dense local
/// ObjectStore slice (arena-backed histories included), the data manager
/// measuring divergence against it, per-shard bound-check counters (the
/// shared BoundCheckStats is not internally synchronized, so each shard
/// owns one resolving into the same registry), and the multi-field stats
/// above. All mutable state is guarded by latch().
class Shard {
 public:
  Shard(size_t index, const ObjectStoreOptions& store_options,
        const DivergenceOptions& divergence, MetricRegistry* metrics,
        bool record_commit_log)
      : index_(index),
        latch_name_("engine.shard" + std::to_string(index) + ".latch"),
        latch_(latch_name_.c_str()),
        store_(store_options),
        data_(&store_, divergence),
        bound_stats_(metrics),
        record_commit_log_(record_commit_log) {}

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  size_t index() const { return index_; }
  ProfiledMutex& latch() { return latch_; }
  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }
  DataManager& data() { return data_; }
  BoundCheckStats& bound_stats() { return bound_stats_; }

  /// Live counters; callers must hold latch().
  ShardStats& stats() { return stats_; }

  /// Consistent snapshot (takes the latch).
  ShardStats SnapshotStats() {
    std::lock_guard<ProfiledMutex> lock(latch_);
    return stats_;
  }

  /// Appends to the commit log; callers must hold latch().
  void RecordCommit(ObjectId global_id, TxnId txn, Timestamp ts) {
    if (record_commit_log_) commit_log_.push_back({global_id, txn, ts});
  }

  /// Quiescent-only read (no concurrent committers).
  const std::vector<CommitLogEntry>& commit_log() const {
    return commit_log_;
  }

 private:
  const size_t index_;
  /// Backing storage for the latch's site name (ProfiledMutex keeps the
  /// pointer); declared before latch_ so it outlives every lock.
  const std::string latch_name_;
  ProfiledMutex latch_;
  ObjectStore store_;  // before data_: the manager borrows it
  DataManager data_;
  BoundCheckStats bound_stats_;
  ShardStats stats_;
  const bool record_commit_log_;
  std::vector<CommitLogEntry> commit_log_;
};

}  // namespace esr

#endif  // ESR_ENGINE_SHARDED_SHARD_H_
