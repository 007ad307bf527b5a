#ifndef ESR_OBS_TRACE_READER_H_
#define ESR_OBS_TRACE_READER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"

namespace esr {

/// Recorder metadata carried in the Chrome trace's "otherData" object.
struct TraceMetadata {
  uint64_t recorded = 0;
  uint64_t dropped = 0;
  uint64_t capacity = 0;
  /// The capture file itself was cut short (process died mid-write) and
  /// only the contiguous prefix of event lines could be salvaged. Distinct
  /// from `dropped`, which counts ring-wraparound loss at record time.
  bool truncated = false;
};

/// Parses a Chrome trace-event JSON document produced by
/// TraceRecorder::ExportChromeTrace back into TraceEvents (inverse of the
/// exporter; the auditor and its tests run on this). Accepts both the
/// object form ({"traceEvents":[...]}) and a bare event array. Unknown
/// event names and phases are skipped, not errors, so traces from newer
/// writers still load. A numeric field that does not fit its integer type
/// (a "ts" of 1e300, a negative "tid", a "level" past 65535) is an
/// InvalidArgument error naming the field.
///
/// Lossy captures degrade instead of failing: a file cut mid-write is
/// salvaged line by line up to the truncation point (the exporter writes
/// one event per line) with `metadata->truncated` set, and ring-wraparound
/// loss (`dropped > 0` in otherData) is reported with a warning log — in
/// both cases the caller gets the contiguous portion and certification
/// stays sound, since lost charges can only under-count accumulation.
Status ReadChromeTrace(const std::string& json, std::vector<TraceEvent>* out,
                       TraceMetadata* metadata = nullptr);

/// File variant of ReadChromeTrace.
Status ReadChromeTraceFile(const std::string& path,
                           std::vector<TraceEvent>* out,
                           TraceMetadata* metadata = nullptr);

}  // namespace esr

#endif  // ESR_OBS_TRACE_READER_H_
