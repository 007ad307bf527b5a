#ifndef ESR_OBS_STREAM_AUDIT_H_
#define ESR_OBS_STREAM_AUDIT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "hierarchy/bound_replay.h"
#include "obs/trace.h"

namespace esr {

/// Configuration of one streaming certification session.
struct StreamCertifierOptions {
  /// Certification window length; aligned with the series sampler's
  /// windows so "certified through t" lines up with telemetry windows.
  double window_s = 1.0;
  /// Timestamp (recorder time source units) of window 0's left edge: the
  /// simulator passes 0 (virtual time starts there), the threaded server
  /// passes its start-of-run wall clock.
  int64_t epoch_micros = 0;
  /// Label used in violation log records ("" = unlabeled).
  std::string source;
  /// Emit an ESR_LOG(kError) record per violation as it is caught.
  bool log_violations = true;
  /// Record a kViolation marker event into the global trace per violation
  /// (safe to enable when the certifier is fed by the recorder itself:
  /// observer callbacks are not re-entered for their own records).
  bool emit_trace_events = false;
};

/// Per-node live certification state.
struct NodeCertification {
  uint64_t group = 0;
  uint16_t level = 0;
  size_t checks = 0;
  bool violated = false;
  /// Node watermark, seconds since the epoch; frozen at the violating
  /// window's left edge once `violated`.
  double certified_through_s = 0.0;
};

/// Snapshot of a certification session: the bounds verdict of a live run
/// (Cluster::Run --certify, threaded_server --certify) and of a captured
/// schedule (CertifySchedule, which `esr audit` reports).
struct StreamCertification {
  /// False when certification never ran (flag off, or tracing compiled
  /// out so there was no event stream to observe).
  bool enabled = false;
  double window_s = 1.0;
  size_t events_observed = 0;
  size_t walks_replayed = 0;
  size_t charges_applied = 0;
  size_t windows_closed = 0;
  /// Latest time observed (events or AdvanceTo heartbeats), seconds since
  /// the epoch.
  double observed_through_s = 0.0;
  /// Aggregate monotone watermark: every bound proven to hold on
  /// [certified_from_s, certified_through_s). Frozen at the violating
  /// window's left edge once a violation is caught.
  double certified_through_s = 0.0;
  /// Left edge of the certified range: 0 for complete captures, the first
  /// fully-observed window when a lossy prefix was reported.
  double certified_from_s = 0.0;
  /// (observed - certified) / window — how far live certification trails
  /// the present.
  double lag_windows = 0.0;
  /// Events lost before the stream started (ring wraparound on a replayed
  /// capture); floors certified_from_s.
  uint64_t lost_prefix_events = 0;
  std::vector<BoundViolation> violations;
  /// Conflict chain blamed per violation (parallel to `violations`): the
  /// writers this transaction had waited on before the crossing, oldest
  /// first.
  std::vector<std::vector<TxnId>> blamed_writers;
  std::vector<NodeCertification> nodes;

  bool certified() const { return violations.empty(); }
};

/// Incremental streaming certifier: consumes trace events as they are
/// recorded (TraceRecorder::SetObserver) or replayed, recertifies the
/// Sec. 5.3.1 bound walk through the shared BoundWalkReplayer, and
/// maintains the monotone "certified through t" watermark per node and in
/// aggregate. Thread-safe: the threaded server's engine threads call
/// Observe concurrently via the recorder observer hook while the metrics
/// thread polls the watermark.
class StreamCertifier {
 public:
  explicit StreamCertifier(StreamCertifierOptions options = {});

  /// TraceRecorder::SetObserver trampoline; `ctx` is the StreamCertifier.
  static void ObserveTrampoline(void* ctx, const TraceEvent& event);

  /// The event kinds Observe reads: bound-walk checks, the transaction
  /// ends that release replay state and close violation intervals, and
  /// the waits that name blamed writers. A live subscription asks the
  /// recorder for these only; every other kind is dropped unstamped.
  static constexpr TraceKindSet kObservedKinds =
      TraceKindBit(TraceEventType::kBoundCheck) |
      TraceKindBit(TraceEventType::kCommit) |
      TraceKindBit(TraceEventType::kAbort) |
      TraceKindBit(TraceEventType::kWait);

  /// Feeds one event, in stream order per transaction. Kinds outside
  /// kObservedKinds only advance the observed clock and event count.
  void Observe(const TraceEvent& event);

  /// Heartbeat: closes windows up to `ts_micros` even when no event has
  /// been observed lately (idle system, quiet tail of a run).
  void AdvanceTo(int64_t ts_micros);

  /// Reports record-time loss before the observed stream (auditing a
  /// wrapped capture): certification can only vouch from the first fully
  /// observed window onward.
  void NoteLostPrefix(uint64_t lost_events, int64_t first_retained_ts);

  // -- Live gauges (each takes the lock; cheap) ---------------------------
  double certified_through_s() const;
  double lag_windows() const;
  size_t violation_count() const;
  bool certified() const;

  /// Full snapshot; violations without a captured transaction end get
  /// ts_end = last observed event timestamp (a live subscription observes
  /// only kObservedKinds, so that is the last of those).
  StreamCertification Snapshot() const;

 private:
  struct NodeState {
    uint16_t level = 0;
    size_t checks = 0;
    bool violated = false;
    /// Watermark ceiling (left edge of the violating window); INT64_MAX
    /// until the node violates.
    int64_t freeze_micros = INT64_MAX;
  };

  int64_t ClosedBoundary(int64_t ts) const;  // requires mu_ held
  double ToSeconds(int64_t ts) const;
  void RecordViolation(const TraceEvent& event, size_t index);

  const StreamCertifierOptions options_;
  const int64_t window_micros_;

  mutable std::mutex mu_;
  BoundWalkReplayer replayer_;
  size_t events_observed_ = 0;
  int64_t observed_through_;
  int64_t last_event_ts_;
  int64_t certified_from_;
  /// Aggregate watermark ceiling; INT64_MAX until the first violation.
  int64_t freeze_micros_;
  uint64_t lost_prefix_events_ = 0;
  std::map<uint64_t, NodeState> nodes_;
  std::vector<std::vector<TxnId>> blamed_writers_;
  /// Writers each live transaction waited on (blame candidates); dropped
  /// at transaction end.
  std::unordered_map<TxnId, std::vector<TxnId>> waits_;
};

/// Certifies a finished schedule (a capture read back from a file, a
/// perturbed or minimized schedule) in one pass: every event through a
/// fresh non-logging certifier with `window_s` windows, then its snapshot.
/// `lost_prefix_events` is the record-time loss before the first event
/// (the capture's `dropped` count; see NoteLostPrefix). `through_micros`,
/// when later than the last event, closes windows up to it as a live
/// run's end-of-run heartbeat does.
StreamCertification CertifySchedule(const std::vector<TraceEvent>& schedule,
                                    double window_s,
                                    uint64_t lost_prefix_events = 0,
                                    int64_t through_micros = 0);

// -- Schedule perturbation (violation hunting) ----------------------------

struct PerturbOptions {
  uint64_t seed = 1;
  /// A site whose next event lies within this horizon of the earliest
  /// pending event is eligible to be drawn next; bounds how far commit
  /// order can drift from the captured timing.
  int64_t horizon_micros = 50'000;
  /// Max per-event timestamp jitter added during the merge.
  int64_t jitter_micros = 500;
};

/// Rebuilds a captured schedule under a seeded commit-order/timing
/// perturbation that preserves each site's (client's) program order:
/// events are partitioned into per-site lanes and re-merged by repeatedly
/// drawing uniformly among the lanes whose head lies within
/// `horizon_micros` of the earliest head. Output timestamps are jittered
/// and made non-decreasing.
std::vector<TraceEvent> PerturbSchedule(const std::vector<TraceEvent>& events,
                                        const PerturbOptions& options);

/// Shrinks a violating schedule to a minimal reproduction: the violating
/// transaction's bound-relevant events, truncated right after the walk
/// that crosses the limit, re-verified to still violate. Returns an empty
/// vector when `schedule` does not violate.
std::vector<TraceEvent> MinimizeViolatingSchedule(
    const std::vector<TraceEvent>& schedule, double window_s);

/// Verdict of one perturbed schedule.
struct PerturbVerdict {
  uint64_t seed = 0;
  size_t violations = 0;
  double certified_through_s = 0.0;
};

/// Result of a perturbation hunt over N seeded schedules.
struct PerturbReport {
  size_t schedules = 0;
  size_t violating = 0;
  std::vector<PerturbVerdict> verdicts;
  /// First violating schedule's seed, its violations, and its minimized
  /// reproduction; empty/0 when every schedule certified.
  uint64_t first_violating_seed = 0;
  std::vector<BoundViolation> first_violations;
  std::vector<TraceEvent> minimal_schedule;
};

/// Replays `events` under `n` seeded perturbations (seeds base_seed ..
/// base_seed + n - 1), streaming each through a certifier.
PerturbReport HuntPerturbations(const std::vector<TraceEvent>& events,
                                size_t n, uint64_t base_seed,
                                double window_s);

}  // namespace esr

#endif  // ESR_OBS_STREAM_AUDIT_H_
