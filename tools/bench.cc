// `esr bench`: the fig07/fig11 throughput regression gate, applied to
// baseline:current report pairs.
//
// Usage:
//   esr bench --check BASELINE:CURRENT [--check BASELINE:CURRENT ...]
//
// Each pair is a committed baseline report (bench/baseline/*.json) and a
// fresh run's --json report. The pair prints as a table with one row per
// (series, x) point: the base and current throughput, the delta, and a
// status.
//
// The rule (Judge): a point regresses when its throughput falls below
// base*(1-5%). When the baseline's own 90% CI half-width (ci90_rel)
// exceeds the tolerance and the drop stays inside that CI, the point is a
// WARNING instead: the baseline itself says seed-level dispersion there
// dwarfs the gate (the deep-thrashing points are bistable across seeds,
// +/-30%). A drop below the baseline's CI floor always fails. The
// simulator is deterministic per seed, so the tolerance only has to
// absorb floating-point variation across compilers. A figure mismatch,
// differing series, and a point present on one side only (MISSING from
// the current report, or NEW in it) also fail. A missing or unreadable
// file is an error.
//
// Exit codes: 0 pass (warnings allowed), 2 regression, 1 usage /
// unreadable input.

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "obs/json_value.h"

namespace esr::cli {
namespace {

constexpr double kTolerance = 0.05;
constexpr const char* kMetric = "throughput";

struct Point {
  double value = 0.0;
  /// Relative 90% CI half-width of the point, when the report carried one.
  double ci90_rel = 0.0;
};

/// One figure report's throughput points, keyed "<series> @ x=<x>".
struct Report {
  std::string figure;
  std::set<std::string> series;
  std::map<std::string, Point> points;
};

enum class Verdict { kOk, kWarning, kRegression };

/// The regression rule for one point; `base` is the baseline side.
Verdict Judge(const Point& base, double cur) {
  if (cur >= base.value * (1.0 - kTolerance)) return Verdict::kOk;
  if (base.ci90_rel > kTolerance &&
      cur >= base.value * (1.0 - base.ci90_rel)) {
    return Verdict::kWarning;
  }
  return Verdict::kRegression;
}

std::string FormatX(double x) {
  char buf[32];
  if (x == static_cast<int64_t>(x)) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(x));
  } else {
    std::snprintf(buf, sizeof(buf), "%g", x);
  }
  return buf;
}

/// Reads a harness JSON report file (figure name and series rows). A
/// baseline never committed, or a report a bench failed to write, is an
/// error, not a skipped pair.
bool LoadReport(const std::string& path, Report* report) {
  auto fail = [&path](const std::string& error) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
    return false;
  };
  std::ifstream in(path);
  if (!in.is_open()) return fail("cannot open");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  esr::JsonValue doc;
  std::string error;
  if (!esr::ParseJson(buffer.str(), &doc, &error)) return fail(error);
  const esr::JsonValue* series = doc.Find("series");
  if (series == nullptr || !series->is_object()) {
    return fail("report has no series object");
  }
  const esr::JsonValue* figure = doc.Find("figure");
  if (figure != nullptr && figure->is_string()) report->figure = figure->string;
  for (const auto& [name, rows] : series->object) {
    report->series.insert(name);
    if (!rows.is_array()) continue;
    for (const esr::JsonValue& row : rows.array) {
      const esr::JsonValue* m = row.Find(kMetric);
      if (m == nullptr || !m->is_number()) continue;
      report->points[name + " @ x=" + FormatX(row.NumberOr("x", 0.0))] = {
          m->number, row.NumberOr("ci90_rel", 0.0)};
    }
  }
  return true;
}

/// Renders one baseline:current pair, appending every point that fails
/// the gate to `regressions`.
void RenderPair(const Report& base, const Report& cur,
                std::vector<std::string>* regressions) {
  const std::string& figure = base.figure;
  std::printf("=== %s — 2 runs (metric: %s, tolerance %.1f%%) ===\n",
              figure.c_str(), kMetric, 100.0 * kTolerance);
  std::printf("  %-28s %12s %12s %8s  %s\n", "point", "base", "current",
              "delta", "status");

  // Row set: union of point keys across both sides, in map order.
  std::set<std::string> keys;
  for (const Report* side : {&base, &cur}) {
    for (const auto& [key, point] : side->points) keys.insert(key);
  }
  for (const std::string& key : keys) {
    std::printf("  %-28s", key.c_str());
    for (const Report* side : {&base, &cur}) {
      const auto it = side->points.find(key);
      if (it == side->points.end()) {
        std::printf(" %12s", "-");
      } else {
        std::printf(" %12.3f", it->second.value);
      }
    }
    std::string status = "ok";
    std::string delta = "-";
    const auto base_it = base.points.find(key);
    const auto cur_it = cur.points.find(key);
    if (cur_it == cur.points.end()) {
      status = "MISSING";
      regressions->push_back(figure + ": " + key +
                             " missing from latest run");
    } else if (base_it == base.points.end()) {
      status = "NEW";
      regressions->push_back(figure + ": " + key + " not in baseline");
    } else {
      const double b = base_it->second.value;
      const double c = cur_it->second.value;
      if (b != 0.0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%+.1f%%", 100.0 * (c - b) / b);
        delta = buf;
      }
      const Verdict verdict = Judge(base_it->second, c);
      if (verdict == Verdict::kWarning) {
        status = "WARNING(ci)";
      } else if (verdict == Verdict::kRegression) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%.3f -> %.3f (floor %.3f)", b, c,
                      b * (1.0 - kTolerance));
        status = "REGRESSION";
        regressions->push_back(figure + ": " + key + " " + buf);
      }
    }
    std::printf(" %8s  %s\n", delta.c_str(), status.c_str());
  }
  std::printf("\n");
}

int RunChecks(const std::vector<std::string>& specs) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const std::string& spec : specs) {
    const size_t colon = spec.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == spec.size()) {
      std::fprintf(stderr, "esr: --check expects BASELINE:CURRENT, got '%s'\n",
                   spec.c_str());
      return Usage();
    }
    pairs.emplace_back(spec.substr(0, colon), spec.substr(colon + 1));
  }
  std::vector<std::string> regressions;
  for (const auto& [base_file, cur_file] : pairs) {
    Report base;
    Report cur;
    if (!LoadReport(base_file, &base) || !LoadReport(cur_file, &cur)) return 1;
    if (cur.figure != base.figure) {
      regressions.push_back("figure mismatch: baseline '" + base.figure +
                            "' vs current '" + cur.figure + "'");
      continue;
    }
    if (base.series != cur.series) {
      regressions.push_back(base.figure +
                            ": baseline and current hold different series");
    }
    RenderPair(base, cur, &regressions);
  }
  if (!regressions.empty()) {
    std::printf("bench gate: REGRESSION (%zu point%s)\n", regressions.size(),
                regressions.size() == 1 ? "" : "s");
    for (const std::string& r : regressions) {
      std::printf("  %s\n", r.c_str());
    }
    return 2;
  }
  std::printf("bench gate: PASS\n");
  return 0;
}

}  // namespace

int Bench(const std::vector<std::string>& args) {
  std::vector<std::string> checks;
  std::vector<std::string> positional;
  if (!ParseFlags(args, {{"--check", &checks}}, &positional) ||
      checks.empty() || !positional.empty()) {
    return Usage();
  }
  return RunChecks(checks);
}

}  // namespace esr::cli
