#ifndef ESR_OBS_EXPORTER_H_
#define ESR_OBS_EXPORTER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace esr {

/// Minimal streaming JSON writer: objects, arrays, scalar values, correct
/// string escaping, and finite-number handling (NaN/inf become null —
/// JSON has no encoding for them). No dependency beyond <ostream>; shared
/// by the metrics exporter, the trace exporter, and the bench harness.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Writes `"key":` inside an object; follow with a value call.
  void Key(const std::string& key);

  void Value(const std::string& value);
  void Value(const char* value);
  void Value(double value);
  void Value(int64_t value);
  void Value(uint64_t value);
  void Value(int value) { Value(static_cast<int64_t>(value)); }
  void Value(bool value);
  void Null();

  // Key/value shorthands.
  template <typename T>
  void KV(const std::string& key, T value) {
    Key(key);
    Value(value);
  }

  static std::string Escape(const std::string& raw);

 private:
  /// Emits a separating comma when the previous sibling was a value.
  void BeforeValue();

  std::ostream& out_;
  /// Whether a comma is needed before the next element, per nesting level.
  std::vector<bool> needs_comma_{false};
  bool pending_key_ = false;
};

/// Writes the registry's counters, gauges, and histograms as one JSON
/// object:
///   {"counters": {name: value, ...},
///    "gauges": {name: value, ...},
///    "histograms": {name: {count, mean, min, max, stddev,
///                          p50, p90, p99, p999}, ...}}
void WriteMetricsJson(const MetricRegistry& metrics, std::ostream& out);

Status ExportMetricsJsonToFile(const MetricRegistry& metrics,
                               const std::string& path);

}  // namespace esr

#endif  // ESR_OBS_EXPORTER_H_
