#ifndef ESR_OBS_AUDIT_H_
#define ESR_OBS_AUDIT_H_

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/types.h"
#include "obs/stream_audit.h"
#include "obs/trace.h"
#include "obs/trace_reader.h"

namespace esr {

/// One wait edge of the conflict graph: `waiter` blocked on `object`
/// because `writer` held an uncommitted write.
struct ConflictEdge {
  TxnId waiter = 0;
  TxnId writer = 0;
  uint64_t object = 0;
  int64_t ts_wait = 0;
  /// Time until the waiter's next RPC attempt (backoff + retry travel);
  /// 0 when no retry was captured.
  int64_t wait_micros = 0;
};

/// Aggregated view of one blocking writer.
struct BlockerSummary {
  TxnId writer = 0;
  uint64_t waits_induced = 0;
  int64_t total_wait_micros = 0;
  /// 'c' committed, 'a' aborted, '?' end not in trace.
  char outcome = '?';
};

/// Critical-path decomposition of one transaction's lifetime:
///   total = rpc_wait + service + conflict_wait + other
/// where rpc_wait is RPC time minus the engine work nested inside it
/// (network travel + CPU queueing), service is engine op/commit CPU time,
/// conflict_wait is time between a Wait verdict and the retry RPC, and
/// other is client think time / scheduling (and any uninstrumented gap).
struct TxnBreakdown {
  TxnId txn = 0;
  SiteId site = 0;
  bool committed = false;
  int64_t total_micros = 0;
  int64_t rpc_wait_micros = 0;
  int64_t service_micros = 0;
  int64_t conflict_wait_micros = 0;
  int64_t other_micros = 0;
};

struct AuditReport {
  TraceMetadata metadata;
  size_t num_events = 0;
  size_t txns_seen = 0;
  size_t txns_committed = 0;
  size_t txns_aborted = 0;
  /// The bounds verdict: CertifySchedule over the events, with its walk
  /// and charge counts, violations and watermark.
  StreamCertification certification;

  std::vector<ConflictEdge> conflicts;
  /// Sorted by total induced wait, descending.
  std::vector<BlockerSummary> blockers;
  /// Committed transactions, sorted by total latency, descending.
  std::vector<TxnBreakdown> breakdowns;

  /// Averages over committed transactions (microseconds).
  double avg_total = 0.0;
  double avg_rpc_wait = 0.0;
  double avg_service = 0.0;
  double avg_conflict_wait = 0.0;
  double avg_other = 0.0;

  /// Every admitted charge stayed within its declared bounds.
  bool certified() const { return certification.certified(); }
};

/// Replays a captured trace: certifies every hierarchical bound from the
/// BoundCheck stream through CertifySchedule (Sec. 5.3.1's invariant, in
/// 1 s windows, vouching only after a lost prefix when
/// `metadata.dropped > 0`), rebuilds the conflict graph from Wait events,
/// and decomposes commit latency from the causal spans. Events must be in
/// record order (as Snapshot and ReadChromeTrace return them).
AuditReport AuditTrace(const std::vector<TraceEvent>& events,
                       const TraceMetadata& metadata = TraceMetadata{});

/// Human-readable report; `top_n` bounds the blocker and slowest-commit
/// tables.
void PrintAuditReport(const AuditReport& report, std::ostream& out,
                      size_t top_n = 10);

/// Machine-readable report (one JSON object).
void WriteAuditJson(const AuditReport& report, std::ostream& out,
                    size_t top_n = 10);

}  // namespace esr

#endif  // ESR_OBS_AUDIT_H_
