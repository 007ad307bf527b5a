#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "cc/to_policy.h"

namespace esr {

const char* TraceEventTypeToString(TraceEventType type) {
  switch (type) {
    case TraceEventType::kBegin:
      return "Begin";
    case TraceEventType::kRead:
      return "Read";
    case TraceEventType::kWrite:
      return "Write";
    case TraceEventType::kCommit:
      return "Commit";
    case TraceEventType::kAbort:
      return "Abort";
    case TraceEventType::kBoundCheck:
      return "BoundCheck";
    case TraceEventType::kImportCharge:
      return "ImportCharge";
    case TraceEventType::kWait:
      return "Wait";
    case TraceEventType::kSpanBegin:
      return "SpanBegin";
    case TraceEventType::kSpanEnd:
      return "SpanEnd";
    case TraceEventType::kFlowBegin:
      return "FlowBegin";
    case TraceEventType::kFlowEnd:
      return "FlowEnd";
    case TraceEventType::kViolation:
      return "Violation";
  }
  return "?";
}

const char* SpanKindToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTxn:
      return "txn";
    case SpanKind::kRpc:
      return "rpc";
    case SpanKind::kOp:
      return "op";
    case SpanKind::kCommit:
      return "commit";
    case SpanKind::kBoundWalk:
      return "bound_walk";
  }
  return "?";
}

TraceRecorder::TraceRecorder(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1),
      ring_storage_(new TraceEvent[capacity_]),
      ring_(ring_storage_.get()) {}

TraceRecorder::TraceRecorder(std::atomic<TraceKindSet>* gate)
    : capacity_(kDefaultCapacity), gate_(gate) {}

void TraceRecorder::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(control_mu_);
  if (enabled && ring_storage_ == nullptr) {
    ring_storage_.reset(new TraceEvent[capacity_]);
    ring_.store(ring_storage_.get(), std::memory_order_release);
  }
  enabled_.store(enabled, std::memory_order_relaxed);
  PublishGate();
}

void TraceRecorder::PublishGate() {
  if (gate_ == nullptr) return;
  TraceKindSet bits = 0;
  if (enabled_.load(std::memory_order_relaxed)) {
    bits |= internal::kTraceGateCapture | internal::kTraceGateKinds;
  }
  if (observer_fn_.load(std::memory_order_relaxed) != nullptr) {
    bits |= internal::kTraceGateObserve |
            (observer_kinds_.load(std::memory_order_relaxed) &
             internal::kTraceGateKinds);
  }
  if (profiling_) bits |= internal::kTraceGateProfile;
  gate_->store(bits, std::memory_order_relaxed);
}

void TraceRecorder::set_profiling(bool profiling) {
  std::lock_guard<std::mutex> lock(control_mu_);
  profiling_ = profiling;
  PublishGate();
}

int64_t TraceRecorder::NowMicros() const {
  const TimeSourceFn fn = time_fn_.load(std::memory_order_acquire);
  if (fn != nullptr) {
    return fn(time_ctx_.load(std::memory_order_acquire));
  }
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TraceRecorder::SetTimeSource(TimeSourceFn fn, void* ctx) {
  time_ctx_.store(ctx, std::memory_order_release);
  time_fn_.store(fn, std::memory_order_release);
}

void TraceRecorder::SetObserver(ObserverFn fn, void* ctx,
                                TraceKindSet kinds) {
  std::lock_guard<std::mutex> lock(control_mu_);
  observer_ctx_.store(ctx, std::memory_order_release);
  observer_kinds_.store(kinds, std::memory_order_release);
  observer_fn_.store(fn, std::memory_order_release);
  PublishGate();
}

namespace {
/// True while this thread is inside an observer callback: events the
/// observer records still land in the ring, but are not re-delivered.
thread_local bool t_in_observer = false;
}  // namespace

uint32_t ThreadLaneId() {
  static std::atomic<uint32_t> next_lane{1};
  thread_local const uint32_t lane =
      next_lane.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

void TraceRecorder::Record(TraceEvent event) {
  // The global recorder stores only while capturing; a standalone one
  // stores every event handed to it.
  TraceEvent* const ring = gate_ == nullptr || enabled()
                               ? ring_.load(std::memory_order_acquire)
                               : nullptr;
  const ObserverFn observer = observer_fn_.load(std::memory_order_acquire);
  const bool deliver =
      observer != nullptr &&
      (observer_kinds_.load(std::memory_order_acquire) &
       TraceKindBit(event.type)) != 0 &&
      !t_in_observer;
  if (ring == nullptr && !deliver) return;

  event.ts_micros = NowMicros();
  if (event.lane == 0) event.lane = ThreadLaneId();
  // Instants recorded inside a span inherit it, so the auditor can tie a
  // BoundCheck or Wait back to the op/walk that produced it. Span and
  // flow events carry their own ids and are left alone.
  if (event.span == 0 && event.type != TraceEventType::kSpanBegin &&
      event.type != TraceEventType::kSpanEnd &&
      event.type != TraceEventType::kFlowBegin &&
      event.type != TraceEventType::kFlowEnd) {
    event.span = CurrentSpan();
  }
  if (ring != nullptr) {
    const uint64_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    ring[slot % capacity_] = event;
  }
  if (deliver) {
    t_in_observer = true;
    observer(observer_ctx_.load(std::memory_order_acquire), event);
    t_in_observer = false;
  }
}

size_t TraceRecorder::size() const {
  const uint64_t n = next_.load(std::memory_order_relaxed);
  return n < capacity_ ? static_cast<size_t>(n) : capacity_;
}

uint64_t TraceRecorder::dropped() const {
  const uint64_t n = next_.load(std::memory_order_relaxed);
  return n > capacity_ ? n - capacity_ : 0;
}

void TraceRecorder::Reset() {
  next_.store(0, std::memory_order_relaxed);
  next_span_id_.store(1, std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  const uint64_t n = next_.load(std::memory_order_relaxed);
  const size_t cap = capacity_;
  const TraceEvent* const ring = ring_.load(std::memory_order_acquire);
  std::vector<TraceEvent> out;
  const size_t count = n < cap ? static_cast<size_t>(n) : cap;
  out.reserve(count);
  // Oldest retained event first: when wrapped, the slot after the last
  // write holds the oldest survivor.
  const uint64_t start = n < cap ? 0 : n - cap;
  for (uint64_t i = start; i < n; ++i) out.push_back(ring[i % cap]);
  return out;
}

namespace {

void WriteCommonFields(std::ostream& out, const TraceEvent& e,
                       bool thread_lanes) {
  out << "\"ts\":" << e.ts_micros << ",\"pid\":" << e.site << ",\"tid\":"
      << (thread_lanes ? static_cast<uint64_t>(e.lane) : e.txn);
}

void WriteDouble(std::ostream& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out << buf;
}

}  // namespace

void WriteChromeTraceEvents(const std::vector<TraceEvent>& events,
                            std::ostream& out, uint64_t recorded,
                            uint64_t dropped, size_t capacity,
                            bool thread_lanes) {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out << ",";
    first = false;
    out << "\n  {";
    switch (e.type) {
      case TraceEventType::kSpanBegin:
      case TraceEventType::kSpanEnd: {
        const SpanKind kind = static_cast<SpanKind>(e.detail);
        const bool begin = e.type == TraceEventType::kSpanBegin;
        out << "\"name\":\"" << SpanKindToString(kind) << "\",";
        if (kind == SpanKind::kTxn) {
          // The transaction span's end is recorded while an op or commit
          // span is still open on the same (pid, tid) track, which would
          // violate the strict LIFO rule of sync B/E pairs. Async
          // nestable events are matched by id instead of stack order.
          out << "\"ph\":\"" << (begin ? "b" : "e")
              << "\",\"cat\":\"txn\",\"id\":" << e.span << ",";
        } else {
          out << "\"ph\":\"" << (begin ? "B" : "E") << "\",";
        }
        WriteCommonFields(out, e, thread_lanes);
        out << ",\"args\":{\"span\":" << e.span << ",\"lane\":" << e.lane;
        if (thread_lanes) out << ",\"txn\":" << e.txn;
        if (begin) {
          out << ",\"parent\":" << e.parent << ",\"target\":" << e.target;
        }
        out << "}}";
        continue;
      }
      case TraceEventType::kFlowBegin:
      case TraceEventType::kFlowEnd: {
        const bool begin = e.type == TraceEventType::kFlowBegin;
        out << "\"name\":\"conflict\",\"cat\":\"conflict\",\"ph\":\""
            << (begin ? "s" : "f") << "\"";
        // Bind the arrow to the enclosing slice's *end*, so it lands on
        // the waiter's op and the writer's commit rather than floating.
        if (!begin) out << ",\"bp\":\"e\"";
        out << ",\"id\":" << e.span << ",";
        WriteCommonFields(out, e, thread_lanes);
        out << "}";
        continue;
      }
      default:
        break;
    }
    out << "\"name\":\"" << TraceEventTypeToString(e.type)
        << "\",\"ph\":\"i\",\"s\":\"t\",";
    WriteCommonFields(out, e, thread_lanes);
    out << ",\"args\":{";
    out << "\"target\":" << e.target << ",\"level\":" << e.level
        << ",\"detail\":" << static_cast<int>(e.detail)
        << ",\"span\":" << e.span << ",\"lane\":" << e.lane;
    if (thread_lanes) out << ",\"txn\":" << e.txn;
    if (e.type == TraceEventType::kAbort) {
      out << ",\"reason\":\""
          << AbortReasonToString(static_cast<AbortReason>(e.detail)) << "\"";
    }
    if (e.type == TraceEventType::kWait) {
      out << ",\"writer\":" << e.parent;
    }
    if (e.type == TraceEventType::kBoundCheck ||
        e.type == TraceEventType::kImportCharge ||
        e.type == TraceEventType::kViolation) {
      out << ",\"charged\":";
      WriteDouble(out, e.charged);
    }
    if (e.type == TraceEventType::kBoundCheck ||
        e.type == TraceEventType::kViolation) {
      // Infinity is not valid JSON; clamp unbounded limits to a sentinel.
      out << ",\"limit\":";
      WriteDouble(out, e.limit == kUnbounded ? -1.0 : e.limit);
      // detail bit 0 = admitted, bit 1 = accumulator direction.
      out << ",\"dir\":\"" << ((e.detail & 2) != 0 ? "export" : "import")
          << "\"";
    }
    if (e.type == TraceEventType::kBoundCheck) {
      out << ",\"outcome\":\"" << ((e.detail & 1) != 0 ? "admit" : "reject")
          << "\"";
    }
    out << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
      << "\"recorded\":" << recorded << ",\"dropped\":" << dropped
      << ",\"capacity\":" << capacity << "}}\n";
}

void TraceRecorder::ExportChromeTrace(std::ostream& out) const {
  WriteChromeTraceEvents(Snapshot(), out, recorded(), dropped(), capacity());
}

Status TraceRecorder::ExportChromeTraceToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open trace output file: " + path);
  }
  ExportChromeTrace(out);
  out.flush();
  if (!out.good()) {
    return Status::Internal("failed writing trace to: " + path);
  }
  if (dropped() > 0) {
    std::fprintf(stderr,
                 "[esr-trace] warning: ring wrapped, %llu of %llu events "
                 "lost (capacity %zu); trace %s is truncated\n",
                 static_cast<unsigned long long>(dropped()),
                 static_cast<unsigned long long>(recorded()), capacity(),
                 path.c_str());
  }
  return Status::OK();
}

namespace internal {
std::atomic<TraceKindSet> g_global_trace_gate{0};
}  // namespace internal

TraceRecorder& GlobalTrace() {
  static TraceRecorder* recorder =
      new TraceRecorder(&internal::g_global_trace_gate);
  return *recorder;
}

#ifndef ESR_TRACE_DISABLED

namespace internal {

uint64_t BeginSpanSlow(SpanKind kind, TxnId txn, SiteId site,
                       uint64_t target, uint64_t parent) {
  TraceRecorder& trace = GlobalTrace();
  if (!trace.enabled()) return 0;
  const uint64_t id = trace.NextSpanId();
  if (parent == 0) parent = CurrentSpan();
  trace.Record(
      TraceEvent::SpanBeginEvent(kind, id, parent, txn, site, target));
  return id;
}

void EndSpanSlow(SpanKind kind, uint64_t span, TxnId txn, SiteId site) {
  GlobalTrace().Record(TraceEvent::SpanEndEvent(kind, span, txn, site));
}

}  // namespace internal

#endif  // !ESR_TRACE_DISABLED

}  // namespace esr
