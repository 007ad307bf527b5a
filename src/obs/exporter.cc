#include "obs/exporter.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace esr {

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (needs_comma_.back()) out_ << ",";
  needs_comma_.back() = true;
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_ << "{";
  needs_comma_.push_back(false);
}

void JsonWriter::EndObject() {
  needs_comma_.pop_back();
  out_ << "}";
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_ << "[";
  needs_comma_.push_back(false);
}

void JsonWriter::EndArray() {
  needs_comma_.pop_back();
  out_ << "]";
}

void JsonWriter::Key(const std::string& key) {
  if (needs_comma_.back()) out_ << ",";
  needs_comma_.back() = true;
  out_ << "\"" << Escape(key) << "\":";
  pending_key_ = true;
}

void JsonWriter::Value(const std::string& value) {
  BeforeValue();
  out_ << "\"" << Escape(value) << "\"";
}

void JsonWriter::Value(const char* value) { Value(std::string(value)); }

void JsonWriter::Value(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ << buf;
}

void JsonWriter::Value(int64_t value) {
  BeforeValue();
  out_ << value;
}

void JsonWriter::Value(uint64_t value) {
  BeforeValue();
  out_ << value;
}

void JsonWriter::Value(bool value) {
  BeforeValue();
  out_ << (value ? "true" : "false");
}

void JsonWriter::Null() {
  BeforeValue();
  out_ << "null";
}

std::string JsonWriter::Escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void WriteMetricsJson(const MetricRegistry& metrics, std::ostream& out) {
  JsonWriter w(out);
  w.BeginObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, value] : metrics.CounterSnapshot()) {
    w.KV(name, value);
  }
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, value] : metrics.GaugeSnapshot()) {
    w.KV(name, value);
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, h] : metrics.HistogramSnapshot()) {
    const PercentileSummary p = h.Percentiles();
    w.Key(name);
    w.BeginObject();
    w.KV("count", h.count());
    w.KV("mean", h.mean());
    w.KV("min", h.min());
    w.KV("max", h.max());
    w.KV("stddev", h.stddev());
    w.KV("p50", p.p50);
    w.KV("p90", p.p90);
    w.KV("p99", p.p99);
    w.KV("p999", p.p999);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  out << "\n";
}

namespace {

Status WriteToFile(const std::string& path,
                   void (*writer)(const MetricRegistry&, std::ostream&),
                   const MetricRegistry& metrics) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open metrics output file: " + path);
  }
  writer(metrics, out);
  out.flush();
  if (!out.good()) {
    return Status::Internal("failed writing metrics to: " + path);
  }
  return Status::OK();
}

}  // namespace

Status ExportMetricsJsonToFile(const MetricRegistry& metrics,
                               const std::string& path) {
  return WriteToFile(path, &WriteMetricsJson, metrics);
}

}  // namespace esr
