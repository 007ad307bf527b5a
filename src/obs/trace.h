#ifndef ESR_OBS_TRACE_H_
#define ESR_OBS_TRACE_H_

// Causal trace layer: events in a lock-free ring, exported as Chrome
// trace JSON, with one synchronous observer (the streaming certifier).
// One probe, one gate word, one stack: every probe reads the gate word
// below once, and a scope's span and phase open through one Probe
// (obs/profile.h) as one frame of one thread-local stack. Spans take the
// recorder's time source (virtual time in the simulator), phases the
// steady clock.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timestamp.h"
#include "common/types.h"

namespace esr {

/// Kind of a transaction-lifecycle trace event. One enumerator per probe
/// point the engines and the divergence-control machinery expose, plus
/// the span/flow structure events the causal tracer emits.
enum class TraceEventType : uint8_t {
  kBegin = 0,
  kRead,
  kWrite,
  kCommit,
  kAbort,
  /// One hierarchy-node check of the bottom-up control loop (Sec. 5.3.1):
  /// level 0 is the transaction level (root), deeper levels are groups.
  kBoundCheck,
  /// A relaxed read successfully charged imported inconsistency.
  kImportCharge,
  /// Strict ordering told the operation to wait for an uncommitted writer.
  kWait,
  /// Opens a causal span (`span` = id, `parent` = parent span id,
  /// `detail` = SpanKind). Exported as Chrome "B" (sync) or "b" (async).
  kSpanBegin,
  /// Closes the span with the same `span` id.
  kSpanEnd,
  /// Flow-arrow anchor at a conflict site (`span` = flow id, which is the
  /// blocking writer's TxnId). Exported as Chrome "s".
  kFlowBegin,
  /// Flow-arrow target at the blocking writer's commit/abort (`span` =
  /// the writer's own TxnId). Exported as Chrome "f".
  kFlowEnd,
  /// The streaming certifier caught an admitted charge past its declared
  /// bound (`target` = violated GroupId, `charged` = replayed
  /// accumulation, `limit` = the crossed limit, detail bit 1 = direction
  /// as in kBoundCheck). Emitted *by* the certifier, ignored by replay.
  kViolation,
};

const char* TraceEventTypeToString(TraceEventType type);

/// Set of TraceEventType kinds, bit `k` standing for kind `k`: an
/// observer subscribes with the kinds it reads.
using TraceKindSet = uint32_t;
constexpr TraceKindSet TraceKindBit(TraceEventType type) {
  return TraceKindSet{1} << static_cast<unsigned>(type);
}
inline constexpr TraceKindSet kAllTraceKinds = ~TraceKindSet{0};

/// What a causal span covers. Spans nest: txn > rpc > op > bound_walk,
/// with commit taking op's place for the commit/abort processing leg.
enum class SpanKind : uint8_t {
  /// Server-side transaction lifetime, Begin to commit/abort teardown.
  /// Exported as a Chrome *async* pair ("b"/"e") because its end is
  /// recorded while an op or commit span is still open on the same track.
  kTxn = 0,
  /// Client-observed RPC leg: issue, travel, CPU queueing, service, and
  /// the response's travel back.
  kRpc,
  /// One engine Read/Write under the engine latch (CPU service time).
  kOp,
  /// Engine commit/abort processing.
  kCommit,
  /// One bottom-up bound-check walk in the accumulator; its kBoundCheck
  /// instants attach to this span.
  kBoundWalk,
};

const char* SpanKindToString(SpanKind kind);
inline constexpr size_t kNumSpanKinds =
    static_cast<size_t>(SpanKind::kBoundWalk) + 1;

/// One fixed-size trace record. Which payload fields are meaningful
/// depends on `type`; unused fields are zero. POD on purpose: recording
/// must be a handful of stores.
struct TraceEvent {
  TraceEventType type = TraceEventType::kBegin;
  /// Type-dependent discriminator: TxnType for kBegin, AbortReason for
  /// kAbort, 1/0 admitted flag for kBoundCheck, SpanKind for
  /// kSpanBegin/kSpanEnd.
  uint8_t detail = 0;
  /// Hierarchy depth for kBoundCheck (0 = root/transaction level).
  uint16_t level = 0;
  /// Issuing site (from the transaction timestamp); 0 when unknown.
  SiteId site = 0;
  /// Small dense id of the recording thread (ThreadLaneId), stamped by
  /// TraceRecorder::Record when left zero. The single-threaded simulator
  /// records everything on one lane; the threaded server gets one lane
  /// per client thread, which the Chrome exporter can use as the "tid"
  /// so captures decompose into per-thread tracks (thread_lanes mode).
  uint32_t lane = 0;
  TxnId txn = 0;
  /// Wall or virtual microseconds, from the recorder's time source.
  int64_t ts_micros = 0;
  /// ObjectId for operation events, GroupId for kBoundCheck.
  uint64_t target = 0;
  /// Causal linkage: the span's own id for kSpanBegin/kSpanEnd, the flow
  /// id for kFlowBegin/kFlowEnd, and the *enclosing* span for every other
  /// event (auto-filled by TraceRecorder::Record from the thread's span
  /// stack when left zero).
  uint64_t span = 0;
  /// Parent span id for kSpanBegin; for kWait, the TxnId of the
  /// uncommitted writer the operation is blocked on.
  uint64_t parent = 0;
  /// Inconsistency charged/imported (kBoundCheck, kImportCharge).
  double charged = 0.0;
  /// The node limit the charge was checked against (kBoundCheck).
  double limit = 0.0;

  // -- Factories for the probe sites --------------------------------------
  static TraceEvent BeginTxn(TxnId txn, TxnType type, SiteId site);
  static TraceEvent Op(TraceEventType type, TxnId txn, SiteId site,
                       ObjectId object);
  static TraceEvent CommitTxn(TxnId txn, SiteId site);
  static TraceEvent AbortTxn(TxnId txn, SiteId site, uint8_t reason);
  /// `group` is the GroupId of the checked node, widened so this header
  /// does not depend on the hierarchy layer.
  static TraceEvent BoundCheck(TxnId txn, SiteId site, uint16_t level,
                               uint64_t group, Inconsistency charged,
                               Inconsistency limit, bool admitted);
  static TraceEvent ImportCharge(TxnId txn, SiteId site, ObjectId object,
                                 Inconsistency d);
  /// `writer` is the uncommitted writer the operation must wait for; the
  /// offline auditor reconstructs conflict chains from it.
  static TraceEvent WaitOn(TxnId txn, SiteId site, ObjectId object,
                           TxnId writer);
  static TraceEvent SpanBeginEvent(SpanKind kind, uint64_t span,
                                   uint64_t parent, TxnId txn, SiteId site,
                                   uint64_t target);
  static TraceEvent SpanEndEvent(SpanKind kind, uint64_t span, TxnId txn,
                                 SiteId site);
  /// `type` must be kFlowBegin or kFlowEnd; `flow` is the flow id (the
  /// blocking writer's TxnId by convention).
  static TraceEvent Flow(TraceEventType type, uint64_t flow, TxnId txn,
                         SiteId site);
  /// Certifier-detected bound violation marker (see kViolation).
  static TraceEvent Violation(TxnId txn, SiteId site, uint16_t level,
                              uint64_t group, double accumulated,
                              double limit, int direction);
};

/// Stamps an explicit enclosing span on an instant event (used where the
/// enclosing span is known but not on the thread's span stack, e.g. the
/// kBegin instant inside the just-opened transaction span).
inline TraceEvent WithSpan(TraceEvent event, uint64_t span) {
  event.span = span;
  return event;
}

// The factories are inline so a probe whose kind the gate does not want
// (see ESR_TRACE_EVENT) folds to a load and a branch: the event's type is
// a compile-time constant at every call site, and nothing is built.

inline TraceEvent TraceEvent::BeginTxn(TxnId txn, TxnType type, SiteId site) {
  TraceEvent e;
  e.type = TraceEventType::kBegin;
  e.detail = static_cast<uint8_t>(type);
  e.site = site;
  e.txn = txn;
  return e;
}

inline TraceEvent TraceEvent::Op(TraceEventType type, TxnId txn, SiteId site,
                                 ObjectId object) {
  TraceEvent e;
  e.type = type;
  e.site = site;
  e.txn = txn;
  e.target = object;
  return e;
}

inline TraceEvent TraceEvent::CommitTxn(TxnId txn, SiteId site) {
  TraceEvent e;
  e.type = TraceEventType::kCommit;
  e.site = site;
  e.txn = txn;
  return e;
}

inline TraceEvent TraceEvent::AbortTxn(TxnId txn, SiteId site, uint8_t reason) {
  TraceEvent e;
  e.type = TraceEventType::kAbort;
  e.detail = reason;
  e.site = site;
  e.txn = txn;
  return e;
}

inline TraceEvent TraceEvent::BoundCheck(TxnId txn, SiteId site, uint16_t level,
                                         uint64_t group, Inconsistency charged,
                                         Inconsistency limit, bool admitted) {
  TraceEvent e;
  e.type = TraceEventType::kBoundCheck;
  e.detail = admitted ? 1 : 0;
  e.level = level;
  e.site = site;
  e.txn = txn;
  e.target = group;
  e.charged = charged;
  e.limit = limit;
  return e;
}

inline TraceEvent TraceEvent::ImportCharge(TxnId txn, SiteId site,
                                           ObjectId object, Inconsistency d) {
  TraceEvent e;
  e.type = TraceEventType::kImportCharge;
  e.site = site;
  e.txn = txn;
  e.target = object;
  e.charged = d;
  return e;
}

inline TraceEvent TraceEvent::WaitOn(TxnId txn, SiteId site, ObjectId object,
                                     TxnId writer) {
  TraceEvent e;
  e.type = TraceEventType::kWait;
  e.site = site;
  e.txn = txn;
  e.target = object;
  e.parent = writer;
  return e;
}

inline TraceEvent TraceEvent::SpanBeginEvent(SpanKind kind, uint64_t span,
                                             uint64_t parent, TxnId txn,
                                             SiteId site, uint64_t target) {
  TraceEvent e;
  e.type = TraceEventType::kSpanBegin;
  e.detail = static_cast<uint8_t>(kind);
  e.site = site;
  e.txn = txn;
  e.target = target;
  e.span = span;
  e.parent = parent;
  return e;
}

inline TraceEvent TraceEvent::SpanEndEvent(SpanKind kind, uint64_t span,
                                           TxnId txn, SiteId site) {
  TraceEvent e;
  e.type = TraceEventType::kSpanEnd;
  e.detail = static_cast<uint8_t>(kind);
  e.site = site;
  e.txn = txn;
  e.span = span;
  return e;
}

inline TraceEvent TraceEvent::Flow(TraceEventType type, uint64_t flow,
                                   TxnId txn, SiteId site) {
  TraceEvent e;
  e.type = type;
  e.site = site;
  e.txn = txn;
  e.span = flow;
  return e;
}

inline TraceEvent TraceEvent::Violation(TxnId txn, SiteId site, uint16_t level,
                                        uint64_t group, double accumulated,
                                        double limit, int direction) {
  TraceEvent e;
  e.type = TraceEventType::kViolation;
  e.detail = static_cast<uint8_t>((direction & 1) << 1);
  e.level = level;
  e.site = site;
  e.txn = txn;
  e.target = group;
  e.charged = accumulated;
  e.limit = limit;
  return e;
}

/// Bounded ring-buffer recorder of trace events.
///
/// Recording is wait-free: a relaxed fetch_add claims a slot and the event
/// is copied in, so the single-threaded simulator pays a few stores per
/// event and the threaded server never serializes on the recorder. When
/// the ring wraps, the oldest events are overwritten (`dropped()` counts
/// them). Snapshot/export must run while no writer is active — the same
/// quiescence the benchmarks' end-of-run reporting already has.
///
/// Runtime-off by default: `Record` is only called behind the
/// `ESR_TRACE_EVENT` macro, which checks the global probe gate (one
/// relaxed atomic load) for the event's kind first, so a disabled
/// recorder — or a kind no consumer wants — costs a predictable branch.
/// The gate's event bits open for either of two consumers:
///   - capture (`set_enabled(true)`): every event is stamped and stored in
///     the ring, and spans open;
///   - an observer (SetObserver): only the kinds it subscribed to are
///     stamped and delivered. With capture off nothing else is stamped,
///     nothing is stored and no span opens — certification pays only for
///     the few kinds it reads.
/// The observer sees the same kind-filtered stream either way. The
/// global profiler's bit shares the word but opens no event.
///
/// A standalone recorder (anything but GlobalTrace()) is fed only by
/// direct Record calls and stores each of them whatever `enabled()` says.
class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 18;

  /// Standalone recorder; allocates its ring up front.
  explicit TraceRecorder(size_t capacity = kDefaultCapacity);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Is capture on?
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Turns capture on or off. The global recorder allocates its ring the
  /// first time capture turns on, before the flag is published.
  void set_enabled(bool enabled);

  /// Stamps `event` with the current time source reading, attaches the
  /// calling thread's current span to instant events recorded without an
  /// explicit one, stores it and hands it to the observer if subscribed
  /// to its kind. An event that would be neither stored nor delivered is
  /// dropped before stamping.
  void Record(TraceEvent event);

  /// Allocates a process-unique causal span id (never 0).
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Redirects event timestamps, e.g. to the simulator's virtual clock.
  /// `fn(ctx)` must stay valid until ClearTimeSource(); `fn == nullptr`
  /// restores the default wall-clock (steady, microseconds) source.
  using TimeSourceFn = int64_t (*)(void* ctx);
  void SetTimeSource(TimeSourceFn fn, void* ctx);
  void ClearTimeSource() { SetTimeSource(nullptr, nullptr); }

  /// Subscribes an observer that Record invokes synchronously with every
  /// stamped event whose kind is in `kinds`, after it is stored (when
  /// capture is on) — the streaming certifier's feed. At most one
  /// observer; `fn(ctx, event)` must stay valid until ClearObserver() and
  /// must be cheap (it runs on the recording thread, under whatever
  /// concurrency the recorder sees). Events the observer itself records
  /// are delivered to the ring but not back to the observer, so it can
  /// emit markers without recursing. On the global recorder a subscribed
  /// observer opens the probe gate without turning capture on.
  using ObserverFn = void (*)(void* ctx, const TraceEvent& event);
  void SetObserver(ObserverFn fn, void* ctx, TraceKindSet kinds);
  void ClearObserver() { SetObserver(nullptr, nullptr, 0); }

  size_t capacity() const { return capacity_; }
  /// Events currently retained (<= capacity).
  size_t size() const;
  /// Total events ever stored.
  uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  /// Events lost to ring wraparound.
  uint64_t dropped() const;

  /// Drops all events (keeps enabled state and time source).
  void Reset();

  /// Retained events, oldest first. Caller must ensure no concurrent
  /// writers (see class comment).
  std::vector<TraceEvent> Snapshot() const;

  /// Writes the retained events as Chrome trace-event JSON (the format
  /// Perfetto / about:tracing load): an object with a "traceEvents" array
  /// — "pid" is the site, "tid" the transaction, spans are "B"/"E"
  /// (sync) or "b"/"e" (async, transaction lifetime) pairs, conflict
  /// flow arrows are "s"/"f" pairs — plus an "otherData" object carrying
  /// recorder metadata (recorded/dropped/capacity), so a consumer can
  /// tell whether the capture lost events to ring wraparound.
  void ExportChromeTrace(std::ostream& out) const;
  /// File variant; logs a warning line to stderr when events were
  /// dropped, so lossy captures never pass silently.
  Status ExportChromeTraceToFile(const std::string& path) const;

 private:
  friend TraceRecorder& GlobalTrace();

  /// The global recorder: default capacity, no ring until capture first
  /// turns on, and the probe gate mirrored into `gate`.
  explicit TraceRecorder(std::atomic<TraceKindSet>* gate);

  int64_t NowMicros() const;
  /// Stores the probe-gate bits for the current capture/observer/profiler
  /// state; requires control_mu_ held.
  void PublishGate();
  /// Profiler::set_enabled on the global profiler publishes its bit here.
  friend class Profiler;
  void set_profiling(bool profiling);

  const size_t capacity_;
  std::atomic<bool> enabled_{false};
  /// Set only on the GlobalTrace() recorder: the constant-initialized
  /// gate word the inline probe fast path reads (wanted kinds plus the
  /// capture and observer bits), so a closed probe costs one relaxed
  /// load and a branch — no call, no static-init guard.
  std::atomic<TraceKindSet>* const gate_ = nullptr;
  /// Serializes set_enabled/SetObserver/set_profiling so the gate word
  /// always reflects the latest of all three.
  std::mutex control_mu_;
  bool profiling_ = false;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<TimeSourceFn> time_fn_{nullptr};
  std::atomic<void*> time_ctx_{nullptr};
  std::atomic<ObserverFn> observer_fn_{nullptr};
  std::atomic<void*> observer_ctx_{nullptr};
  std::atomic<TraceKindSet> observer_kinds_{0};
  /// Owns the ring; `ring_` publishes it to recording threads (null until
  /// allocated).
  std::unique_ptr<TraceEvent[]> ring_storage_;
  std::atomic<TraceEvent*> ring_{nullptr};
};

/// Writes an arbitrary event sequence in the Chrome trace JSON format
/// TraceRecorder::ExportChromeTrace emits — used to persist perturbed and
/// minimized schedules that never lived in a recorder. The counters fill
/// the "otherData" metadata block.
///
/// With `thread_lanes` set, "tid" carries the recording thread's lane
/// (TraceEvent::lane) instead of the transaction id, so a threaded-server
/// capture renders as one Perfetto track per client thread; the
/// transaction id moves into "args" ("txn") and nothing is lost —
/// `esr profile` uses this to re-group a standard capture by thread.
void WriteChromeTraceEvents(const std::vector<TraceEvent>& events,
                            std::ostream& out, uint64_t recorded,
                            uint64_t dropped, size_t capacity,
                            bool thread_lanes = false);

/// Small dense id (1-based) of the calling thread, assigned on first use.
/// TraceRecorder::Record stamps it into TraceEvent::lane; the wall-clock
/// profiler (obs/profile.h) uses the same id so phase attribution and
/// trace lanes name threads consistently.
uint32_t ThreadLaneId();

/// The process-wide recorder the ESR_TRACE_EVENT probes feed. Disabled by
/// default; tests, examples, and the bench/threaded-server flags enable
/// capture around the region of interest, and streaming certification
/// attaches an observer. Its ring is allocated when capture first turns
/// on, so a process that never captures never pays for it.
TraceRecorder& GlobalTrace();

namespace internal {
/// The global recorder's probe-gate word (kept in sync by set_enabled,
/// SetObserver and the global profiler's set_enabled): the union of the
/// event kinds some consumer wants — every kind while capturing, the
/// subscribed kinds for an observer — plus one bit each for capture on,
/// observer subscribed and profiler on.
inline constexpr TraceKindSet kTraceGateKinds =
    TraceKindBit(TraceEventType::kViolation) * 2 - 1;
inline constexpr TraceKindSet kTraceGateProfile = TraceKindSet{1} << 29;
inline constexpr TraceKindSet kTraceGateObserve = TraceKindSet{1} << 30;
inline constexpr TraceKindSet kTraceGateCapture = TraceKindSet{1} << 31;
static_assert((kTraceGateKinds & kTraceGateProfile) == 0,
              "event kinds overlap the gate's state bits");
/// Constant-initialized so probes inlined into static initializers read
/// a well-defined closed gate.
extern std::atomic<TraceKindSet> g_global_trace_gate;
}  // namespace internal

/// The probe gate word; 0 under ESR_DISABLE_TRACING.
inline TraceKindSet GlobalTraceGate() {
#ifdef ESR_TRACE_DISABLED
  return 0;
#else
  return internal::g_global_trace_gate.load(std::memory_order_relaxed);
#endif
}

/// Does some consumer of the global recorder want events of `type`?
/// Capture wants every kind; an observer alone wants the kinds it
/// subscribed to.
inline bool GlobalTraceWants(TraceEventType type) {
  return (GlobalTraceGate() & TraceKindBit(type)) != 0;
}

/// Is the process-wide recorder capturing? Spans open only then: an
/// observer alone never reads them.
inline bool GlobalTraceCapturing() {
  return (GlobalTraceGate() & internal::kTraceGateCapture) != 0;
}

/// Innermost open span on this thread (0 when none): the top of the probe
/// stack (obs/profile.h). Record attaches it to instant events so
/// BoundCheck/Wait/... land inside the span that caused them. The
/// single-threaded simulator shares one stack, which is empty between
/// event-queue callbacks; cross-callback spans (RPC legs) are
/// re-established with ScopedSpanParent.
uint64_t CurrentSpan();

#ifndef ESR_TRACE_DISABLED
namespace internal {
uint64_t BeginSpanSlow(SpanKind kind, TxnId txn, SiteId site,
                       uint64_t target, uint64_t parent);
void EndSpanSlow(SpanKind kind, uint64_t span, TxnId txn, SiteId site);
}  // namespace internal

/// Opens a span whose end is recorded elsewhere (possibly another
/// event-queue callback). Returns 0 unless capture is on. `parent` 0
/// resolves to the thread's current span.
inline uint64_t BeginSpan(SpanKind kind, TxnId txn, SiteId site,
                          uint64_t target = 0, uint64_t parent = 0) {
  return GlobalTraceCapturing()
             ? internal::BeginSpanSlow(kind, txn, site, target, parent)
             : 0;
}
/// Ends a span opened with BeginSpan; no-op when `span` is 0.
inline void EndSpan(SpanKind kind, uint64_t span, TxnId txn, SiteId site) {
  if (span != 0) internal::EndSpanSlow(kind, span, txn, site);
}
#else
inline uint64_t BeginSpan(SpanKind, TxnId, SiteId, uint64_t = 0,
                          uint64_t = 0) {
  return 0;
}
inline void EndSpan(SpanKind, uint64_t, TxnId, SiteId) {}
#endif

/// RAII subscription of an observer (e.g. a StreamCertifier) to the
/// global recorder for the event kinds it reads, cleared on scope exit.
class ScopedTraceObserver {
 public:
  ScopedTraceObserver(TraceRecorder::ObserverFn fn, void* ctx,
                      TraceKindSet kinds) {
    GlobalTrace().SetObserver(fn, ctx, kinds);
  }
  ~ScopedTraceObserver() { GlobalTrace().ClearObserver(); }

  ScopedTraceObserver(const ScopedTraceObserver&) = delete;
  ScopedTraceObserver& operator=(const ScopedTraceObserver&) = delete;
};

/// RAII redirect of the global recorder's clock — e.g. to a simulator's
/// virtual time for the duration of a run — restored on scope exit.
class ScopedTraceTimeSource {
 public:
  ScopedTraceTimeSource(TraceRecorder::TimeSourceFn fn, void* ctx) {
    GlobalTrace().SetTimeSource(fn, ctx);
  }
  ~ScopedTraceTimeSource() { GlobalTrace().ClearTimeSource(); }

  ScopedTraceTimeSource(const ScopedTraceTimeSource&) = delete;
  ScopedTraceTimeSource& operator=(const ScopedTraceTimeSource&) = delete;
};

}  // namespace esr

/// Probe macro: evaluates `event_expr` only when the global probe gate
/// has a bit besides the profiler's open, and records it only when the
/// gate wants the event's kind, so a kind no consumer reads costs one
/// load and never calls Record.
/// Compiles away entirely (including `event_expr`) when the build defines
/// ESR_TRACE_DISABLED (CMake -DESR_DISABLE_TRACING).
#ifdef ESR_TRACE_DISABLED
#define ESR_TRACE_EVENT(event_expr) \
  do {                              \
  } while (0)
#else
#define ESR_TRACE_EVENT(event_expr)                                       \
  do {                                                                    \
    const ::esr::TraceKindSet esr_trace_gate_ = ::esr::GlobalTraceGate(); \
    if ((esr_trace_gate_ & ~::esr::internal::kTraceGateProfile) != 0) {  \
      const ::esr::TraceEvent esr_trace_event_ = (event_expr);            \
      if ((esr_trace_gate_ & ::esr::TraceKindBit(esr_trace_event_.type)) \
          != 0) {                                                         \
        ::esr::GlobalTrace().Record(esr_trace_event_);                    \
      }                                                                   \
    }                                                                     \
  } while (0)
#endif

#endif  // ESR_OBS_TRACE_H_
