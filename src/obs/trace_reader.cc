#include "obs/trace_reader.h"

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.h"
#include "obs/json_value.h"

namespace esr {

namespace {

bool NameToInstantType(const std::string& name, TraceEventType* out) {
  if (name == "Begin") *out = TraceEventType::kBegin;
  else if (name == "Read") *out = TraceEventType::kRead;
  else if (name == "Write") *out = TraceEventType::kWrite;
  else if (name == "Commit") *out = TraceEventType::kCommit;
  else if (name == "Abort") *out = TraceEventType::kAbort;
  else if (name == "BoundCheck") *out = TraceEventType::kBoundCheck;
  else if (name == "ImportCharge") *out = TraceEventType::kImportCharge;
  else if (name == "Wait") *out = TraceEventType::kWait;
  else if (name == "Violation") *out = TraceEventType::kViolation;
  else return false;
  return true;
}

bool NameToSpanKind(const std::string& name, SpanKind* out) {
  if (name == "txn") *out = SpanKind::kTxn;
  else if (name == "rpc") *out = SpanKind::kRpc;
  else if (name == "op") *out = SpanKind::kOp;
  else if (name == "commit") *out = SpanKind::kCommit;
  else if (name == "bound_walk") *out = SpanKind::kBoundWalk;
  else return false;
  return true;
}

// Reads member `key` of `obj` into the integer *out when it is a number,
// truncating a fraction; leaves *out as is when the member is absent or
// not a number. A number outside T's range (casting it would be undefined)
// sets *error, naming the field, unless an earlier field already did.
// The exporter writes 64-bit fields in full, and a value near the type's
// maximum reads back rounded up to 2^63 or 2^64: that one clamps.
template <typename T>
void ReadInt(const JsonValue& obj, const char* key, T* out,
             std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) return;
  const double d = v->number;
  constexpr T kMin = std::numeric_limits<T>::min();
  constexpr T kMax = std::numeric_limits<T>::max();
  if (!(d >= static_cast<double>(kMin) && d <= static_cast<double>(kMax))) {
    if (error->empty()) {
      std::ostringstream message;
      message << "trace field \"" << key << "\" = " << d
              << " does not fit its " << sizeof(T) * 8 << "-bit type";
      *error = message.str();
    }
    return;
  }
  *out = d >= static_cast<double>(kMax) ? kMax : static_cast<T>(d);
}

// One exported Chrome event object -> TraceEvent. Returns false to skip
// (unknown name/phase, metadata rows) — skipping is not an error; a
// numeric field that does not fit its type is, reported through *error.
bool DecodeEvent(const JsonValue& obj, TraceEvent* e, std::string* error) {
  const JsonValue* name = obj.Find("name");
  const JsonValue* ph = obj.Find("ph");
  if (name == nullptr || !name->is_string() || ph == nullptr ||
      !ph->is_string()) {
    return false;
  }
  *e = TraceEvent{};
  ReadInt(obj, "ts", &e->ts_micros, error);
  ReadInt(obj, "pid", &e->site, error);
  ReadInt(obj, "tid", &e->txn, error);
  const JsonValue* args = obj.Find("args");

  const std::string& phase = ph->string;
  if (phase == "B" || phase == "E" || phase == "b" || phase == "e") {
    SpanKind kind;
    if (!NameToSpanKind(name->string, &kind)) return false;
    const bool begin = phase == "B" || phase == "b";
    e->type = begin ? TraceEventType::kSpanBegin : TraceEventType::kSpanEnd;
    e->detail = static_cast<uint8_t>(kind);
    if (args != nullptr) {
      ReadInt(*args, "span", &e->span, error);
      ReadInt(*args, "lane", &e->lane, error);
      // thread_lanes-mode exports move the transaction id into args
      // (tid carries the lane there); prefer it when present.
      ReadInt(*args, "txn", &e->txn, error);
      if (begin) {
        ReadInt(*args, "parent", &e->parent, error);
        ReadInt(*args, "target", &e->target, error);
      }
    }
    // Async txn spans also carry the id at top level; prefer args' span
    // but fall back for traces trimmed by other tools.
    if (e->span == 0) ReadInt(obj, "id", &e->span, error);
    return e->span != 0;
  }
  if (phase == "s" || phase == "f") {
    e->type = phase == "s" ? TraceEventType::kFlowBegin
                           : TraceEventType::kFlowEnd;
    ReadInt(obj, "id", &e->span, error);
    return true;
  }
  if (phase != "i" && phase != "I") return false;

  if (!NameToInstantType(name->string, &e->type)) return false;
  if (args != nullptr) {
    ReadInt(*args, "target", &e->target, error);
    ReadInt(*args, "level", &e->level, error);
    ReadInt(*args, "detail", &e->detail, error);
    ReadInt(*args, "span", &e->span, error);
    ReadInt(*args, "lane", &e->lane, error);
    ReadInt(*args, "txn", &e->txn, error);
    e->charged = args->NumberOr("charged", 0.0);
    if (e->type == TraceEventType::kWait) {
      ReadInt(*args, "writer", &e->parent, error);
    }
    if (e->type == TraceEventType::kBoundCheck ||
        e->type == TraceEventType::kViolation) {
      const double limit = args->NumberOr("limit", -1.0);
      // The exporter clamps unbounded limits to -1 (inf is not JSON).
      e->limit = limit < 0 ? kUnbounded : limit;
    }
  }
  return true;
}

// Recovers events from a capture file cut mid-write. The exporter emits
// one event object per line (prefixed by two spaces, comma-separated), so
// the contiguous prefix is recoverable by parsing line-wise and stopping
// at the first unparsable event after at least one success. An empty
// `out` means nothing was recognizable (keep the original parse error);
// `field_error` is set when a salvaged event has a field that does not
// fit.
void SalvageTruncatedTrace(const std::string& json,
                           std::vector<TraceEvent>* out,
                           std::string* field_error) {
  out->clear();
  size_t pos = 0;
  bool parsed_any = false;
  while (pos < json.size()) {
    size_t eol = json.find('\n', pos);
    if (eol == std::string::npos) eol = json.size();
    size_t begin = pos;
    size_t end = eol;
    pos = eol + 1;
    while (begin < end && (json[begin] == ' ' || json[begin] == '\t')) {
      ++begin;
    }
    while (end > begin &&
           (json[end - 1] == ',' || json[end - 1] == ' ' ||
            json[end - 1] == '\r')) {
      --end;
    }
    if (begin >= end || json[begin] != '{') continue;
    JsonValue obj;
    std::string error;
    if (!ParseJson(json.substr(begin, end - begin), &obj, &error) ||
        !obj.is_object()) {
      // Lines before the first event (the {"traceEvents":[ header) are
      // not standalone objects; skip them. After events started parsing,
      // the first bad line is the truncation point.
      if (parsed_any) break;
      continue;
    }
    parsed_any = true;
    TraceEvent e;
    if (DecodeEvent(obj, &e, field_error)) out->push_back(e);
    if (!field_error->empty()) return;
  }
}

}  // namespace

Status ReadChromeTrace(const std::string& json, std::vector<TraceEvent>* out,
                       TraceMetadata* metadata) {
  JsonValue root;
  std::string error;
  if (!ParseJson(json, &root, &error)) {
    std::string field_error;
    SalvageTruncatedTrace(json, out, &field_error);
    if (!field_error.empty()) return Status::InvalidArgument(field_error);
    const size_t salvaged = out->size();
    if (salvaged == 0) {
      return Status::InvalidArgument("malformed trace JSON: " + error);
    }
    ESR_LOG(kWarning) << "trace JSON is truncated (" << error
                      << "); salvaged the contiguous prefix of " << salvaged
                      << " event(s) — stats and certification cover that "
                         "prefix only";
    if (metadata != nullptr) {
      *metadata = TraceMetadata{};
      metadata->truncated = true;
      metadata->recorded = salvaged;
    }
    return Status::OK();
  }
  const JsonValue* events = nullptr;
  if (root.is_array()) {
    events = &root;
  } else if (root.is_object()) {
    events = root.Find("traceEvents");
    if (metadata != nullptr) {
      *metadata = TraceMetadata{};
      if (const JsonValue* other = root.Find("otherData")) {
        ReadInt(*other, "recorded", &metadata->recorded, &error);
        ReadInt(*other, "dropped", &metadata->dropped, &error);
        ReadInt(*other, "capacity", &metadata->capacity, &error);
        if (!error.empty()) return Status::InvalidArgument(error);
      }
    }
  }
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument(
        "trace JSON has no traceEvents array");
  }
  out->clear();
  out->reserve(events->array.size());
  for (const JsonValue& obj : events->array) {
    if (!obj.is_object()) continue;
    TraceEvent e;
    if (DecodeEvent(obj, &e, &error)) out->push_back(e);
    if (!error.empty()) return Status::InvalidArgument(error);
  }
  if (metadata != nullptr && metadata->dropped > 0) {
    ESR_LOG(kWarning) << "trace capture lost " << metadata->dropped
                      << " event(s) to ring wraparound; certification "
                         "replays the retained "
                      << out->size()
                      << "-event suffix (sound — lost charges only "
                         "under-count accumulation)";
  }
  return Status::OK();
}

Status ReadChromeTraceFile(const std::string& path,
                           std::vector<TraceEvent>* out,
                           TraceMetadata* metadata) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open trace file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadChromeTrace(buffer.str(), out, metadata);
}

}  // namespace esr
