#ifndef ESR_REPLICATION_REPLICATED_DATABASE_H_
#define ESR_REPLICATION_REPLICATED_DATABASE_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "sim/event_queue.h"
#include "txn/server.h"

namespace esr {

/// Configuration of the asynchronous replication layer.
struct ReplicationOptions {
  int num_replicas = 3;
  /// How long a committed write takes to reach and apply at a replica.
  double propagation_delay_ms = 200.0;
};

/// The paper's conclusion points at "ESR in the case of a distributed
/// system with data replication" (the Pu & Leff [16] line of work). This
/// module builds that substrate: a primary transaction server whose
/// committed writes propagate asynchronously to read-only replicas, with
/// ESR-style divergence control for replica reads.
///
/// The key mechanism mirrors Sec. 5's proper/present scheme, adapted to
/// replication:
///
///  * each replica lags the primary by whatever updates are still in its
///    propagation queue;
///  * the *conservative divergence estimate* for object x at replica r is
///    the sum of |value change| over x's queued-but-unapplied updates —
///    an upper bound on |primary(x) - replica(x)| by the triangle
///    inequality (the same property Sec. 2 requires of the state space);
///  * a bounded replica read is admitted iff that estimate fits the
///    query's import budget; with a zero bound, reads are only admitted
///    when the replica is fully caught up on that object (SR behaviour).
///
/// Simulation-only instrumentation also reports the TRUE divergence, so
/// tests can verify estimate >= truth (soundness of the control).
class ReplicatedDatabase {
 public:
  /// `primary` (the full ESR engine) must outlive the replication layer;
  /// its objects' present values seed every replica.
  ReplicatedDatabase(const ReplicationOptions& replication, Server* primary);

  Server& primary() { return *primary_; }

  int num_replicas() const { return options_.num_replicas; }

  /// Commits `txn` on the primary. On success its writes enter every
  /// replica's propagation queue stamped `now`: each object's new value
  /// and the committed pre-image it replaced, read from the engine's
  /// shadow just before the commit. Everything else a primary
  /// transaction does goes straight to primary().
  Status Commit(TxnId txn, SimTime now);

  // -- Replication engine --------------------------------------------------
  /// Applies every queued write that has been in flight for at least the
  /// propagation delay as of `now`. Call from the simulation loop.
  void AdvanceTo(SimTime now);

  /// Forces replica `r` fully up to date (e.g. a sync barrier).
  void SyncReplica(int replica);

  // -- Replica-side bounded reads ------------------------------------------
  struct ReplicaRead {
    Value value = 0;
    /// Conservative divergence estimate charged against the bound.
    Inconsistency estimated_divergence = 0.0;
    /// Exact |primary committed - replica| (instrumentation only).
    Inconsistency true_divergence = 0.0;
  };

  /// Reads object `object` at replica `replica` if its divergence
  /// estimate fits within `budget`; kBoundViolation otherwise.
  Result<ReplicaRead> ReadAtReplica(int replica, ObjectId object,
                                    Inconsistency budget);

  struct ReplicaQueryResult {
    double sum = 0.0;
    Inconsistency estimated_import = 0.0;
    Inconsistency true_import = 0.0;
    size_t objects_read = 0;
  };

  /// A replica-local sum query with a transaction import limit: admitted
  /// iff the accumulated conservative estimate stays within `til`
  /// (bottom-up, read by read, like Sec. 5.1).
  Result<ReplicaQueryResult> ReplicaSumQuery(
      int replica, const std::vector<ObjectId>& objects, Inconsistency til);

  /// Conservative per-object estimate (sum of queued |changes|).
  Inconsistency DivergenceEstimate(int replica, ObjectId object) const;

  /// Queue depth of a replica (diagnostics).
  size_t PendingWrites(int replica) const;

  /// Replica-local value (no admission check; diagnostics/tests).
  Value PeekReplica(int replica, ObjectId object) const;

 private:
  struct QueuedWrite {
    ObjectId object;
    Value new_value;
    /// |new - previous primary value|: the weight this write contributes
    /// to the divergence estimate while unapplied.
    Inconsistency weight;
    SimTime committed_at;
  };

  struct ReplicaState {
    std::vector<Value> values;
    std::deque<QueuedWrite> queue;
    /// Per-object sum of queued weights (the estimate, O(1) reads).
    std::unordered_map<ObjectId, Inconsistency> pending_weight;
  };

  void ApplyFront(ReplicaState* replica);

  ReplicationOptions options_;
  Server* primary_;
  std::vector<ReplicaState> replicas_;
  /// Commit scratch: the committing transaction's writes.
  std::vector<QueuedWrite> committing_;
};

}  // namespace esr

#endif  // ESR_REPLICATION_REPLICATED_DATABASE_H_
