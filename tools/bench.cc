// `esr bench`: the fig07/fig11 throughput regression rule, applied to a
// benchmark registry's trend or to baseline:current report pairs.
//
// Usage:
//   esr bench <registry_dir>
//   esr bench --demo | --demo-regression
//   esr bench --check BASELINE:CURRENT [--check BASELINE:CURRENT ...]
//
// The rule (Judge): a point regresses when its throughput falls below
// base*(1-5%), base being the older side's value. When the older side's
// own 90% CI half-width (ci90_rel) exceeds the tolerance and the drop
// stays inside that CI, the point is a WARNING instead: the baseline
// itself says seed-level dispersion there dwarfs the gate (the
// deep-thrashing points are bistable across seeds, +/-30%). A drop below
// the older side's CI floor always fails. The simulator is deterministic
// per seed, so the tolerance only has to absorb floating-point variation
// across compilers.
//
// Trend view (<registry_dir>, the envelope JSONs appended by the figure
// binaries' --registry flag / ESR_BENCH_REGISTRY): entries are grouped by
// figure and ordered by recorded_unix (filename as tiebreak). The last
// runs print as columns labeled by short git sha, one row per (series, x)
// point, with the latest run's delta against the previous run, which is
// the baseline, and a per-point status. A point only the latest run has
// is `new`; a point it lost is MISSING and regresses.
//
// Gate (--check): each pair is a committed baseline report
// (bench/baseline/*.json) and a fresh run's --json report, rendered as a
// two-run trend. The gate is stricter than the trend: it also fails a
// figure mismatch and a series or point present only in the current
// report. A missing or unreadable file is an error.
//
// Exit codes: 0 pass (warnings allowed; a single-run trend has "no trend
// yet"), 2 regression, 1 usage / unreadable input.

#include <algorithm>
#include <cstdio>
#include <filesystem>
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

/// The regression rule for one point; `base` is the older side.
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

std::string StringOr(const esr::JsonValue& obj, const std::string& key) {
  const esr::JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_string() ? v->string : "";
}

bool ReadJsonFile(const std::string& path, esr::JsonValue* root,
                  std::string* error) {
  std::ifstream in(path);
  if (!in.is_open()) {
    *error = "cannot open";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return esr::ParseJson(buffer.str(), root, error);
}

/// Reads a harness JSON report (figure name and series rows).
bool ReadReport(const esr::JsonValue& doc, Report* report,
                std::string* error) {
  report->figure = StringOr(doc, "figure");
  const esr::JsonValue* series = doc.Find("series");
  if (series == nullptr || !series->is_object()) {
    *error = "report has no series object";
    return false;
  }
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

// -- Trend view -------------------------------------------------------------

struct RunEntry {
  std::string sha;
  std::string file;
  int64_t recorded = 0;
  Report report;
};

bool ParseEntry(const esr::JsonValue& root, const std::string& file,
                RunEntry* entry, std::string* error) {
  const esr::JsonValue* registered = root.Find("registered");
  const esr::JsonValue* report = root.Find("report");
  if (registered == nullptr || report == nullptr) {
    *error = "not a registry envelope (missing registered/report)";
    return false;
  }
  entry->file = file;
  entry->sha = StringOr(*registered, "git_sha");
  entry->recorded =
      static_cast<int64_t>(registered->NumberOr("recorded_unix", 0.0));
  if (!ReadReport(*report, &entry->report, error)) return false;
  entry->report.figure = StringOr(*registered, "figure");
  if (entry->report.figure.empty()) {
    *error = "envelope has no figure name";
    return false;
  }
  return true;
}

std::string Sha7(const std::string& sha) {
  return sha.size() > 7 ? sha.substr(0, 7) : sha;
}

/// Renders one figure's trend, appending the points the latest run
/// regressed against its predecessor to `regressions`. `strict` (the
/// --check gate) also fails a point only the latest run has.
void RenderFigure(const std::string& figure, std::vector<RunEntry> runs,
                  bool strict, std::vector<std::string>* regressions) {
  std::sort(runs.begin(), runs.end(),
            [](const RunEntry& a, const RunEntry& b) {
              if (a.recorded != b.recorded) return a.recorded < b.recorded;
              return a.file < b.file;
            });
  std::printf("=== %s — %zu run%s (metric: %s, tolerance %.1f%%) ===\n",
              figure.c_str(), runs.size(), runs.size() == 1 ? "" : "s",
              kMetric, 100.0 * kTolerance);

  // Show at most the last six runs as columns; note what's elided.
  constexpr size_t kMaxColumns = 6;
  const size_t first =
      runs.size() > kMaxColumns ? runs.size() - kMaxColumns : 0;
  if (first > 0) {
    std::printf("(showing last %zu of %zu runs)\n", kMaxColumns,
                runs.size());
  }
  std::vector<const Report*> cols;
  for (size_t i = first; i < runs.size(); ++i) cols.push_back(&runs[i].report);

  // Row set: union of point keys across the displayed runs, in map order.
  std::set<std::string> keys;
  for (const Report* run : cols) {
    for (const auto& [key, point] : run->points) keys.insert(key);
  }

  std::printf("  %-28s", "point");
  for (size_t i = first; i < runs.size(); ++i) {
    std::printf(" %12s", Sha7(runs[i].sha).c_str());
  }
  std::printf(" %8s  %s\n", "delta", "status");

  const Report* latest = cols.back();
  const Report* previous = cols.size() >= 2 ? cols[cols.size() - 2] : nullptr;
  for (const std::string& key : keys) {
    std::printf("  %-28s", key.c_str());
    for (const Report* run : cols) {
      auto it = run->points.find(key);
      if (it == run->points.end()) {
        std::printf(" %12s", "-");
      } else {
        std::printf(" %12.3f", it->second.value);
      }
    }
    std::string status = "ok";
    std::string delta = "-";
    const auto cur_it = latest->points.find(key);
    if (previous == nullptr) {
      status = "baseline";
    } else {
      const auto prev_it = previous->points.find(key);
      if (cur_it == latest->points.end()) {
        if (prev_it != previous->points.end()) {
          status = "MISSING";
          regressions->push_back(figure + ": " + key +
                                 " missing from latest run");
        } else {
          status = "-";
        }
      } else if (prev_it == previous->points.end()) {
        status = strict ? "NEW" : "new";
        if (strict) {
          regressions->push_back(figure + ": " + key + " not in baseline");
        }
      } else {
        const double base = prev_it->second.value;
        const double cur = cur_it->second.value;
        if (base != 0.0) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%+.1f%%",
                        100.0 * (cur - base) / base);
          delta = buf;
        }
        const Verdict verdict = Judge(prev_it->second, cur);
        if (verdict == Verdict::kWarning) {
          status = "WARNING(ci)";
        } else if (verdict == Verdict::kRegression) {
          char buf[96];
          std::snprintf(buf, sizeof(buf), "%.3f -> %.3f (floor %.3f)", base,
                        cur, base * (1.0 - kTolerance));
          status = "REGRESSION";
          regressions->push_back(figure + ": " + key + " " + buf);
        }
      }
    }
    std::printf(" %8s  %s\n", delta.c_str(), status.c_str());
  }
  if (runs.size() == 1) std::printf("  (single run — no trend yet)\n");
  std::printf("\n");
}

int Summarize(const char* label, const std::vector<std::string>& regressions) {
  if (!regressions.empty()) {
    std::printf("%s: REGRESSION (%zu point%s)\n", label, regressions.size(),
                regressions.size() == 1 ? "" : "s");
    for (const std::string& r : regressions) {
      std::printf("  %s\n", r.c_str());
    }
    return 2;
  }
  std::printf("%s: PASS\n", label);
  return 0;
}

int Analyze(std::vector<RunEntry> entries) {
  std::map<std::string, std::vector<RunEntry>> by_figure;
  for (RunEntry& entry : entries) {
    by_figure[entry.report.figure].push_back(std::move(entry));
  }
  std::vector<std::string> regressions;
  for (auto& [figure, runs] : by_figure) {
    RenderFigure(figure, std::move(runs), /*strict=*/false, &regressions);
  }
  return Summarize("bench trend", regressions);
}

RunEntry DemoRun(const std::string& sha, int64_t recorded, double zero,
                 double med) {
  RunEntry run;
  run.report.figure = "fig07_throughput_vs_mpl";
  run.sha = sha;
  run.file = sha + ".json";
  run.recorded = recorded;
  run.report.points["zero(SR) @ x=8"] = {zero, 0.01};
  run.report.points["medium @ x=8"] = {med, 0.01};
  return run;
}

int RunDemo(bool with_regression) {
  std::vector<RunEntry> entries;
  entries.push_back(DemoRun("aaaaaaaaaaaa", 1000, 120.0, 150.0));
  // Second run: steady zero-bound series; the medium series either holds
  // (demo) or drops 20% with a tight CI (demo-regression).
  const double med = with_regression ? 120.0 : 151.5;
  entries.push_back(DemoRun("bbbbbbbbbbbb", 2000, 121.0, med));
  return Analyze(std::move(entries));
}

int RunTrend(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot read registry dir %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::vector<std::string> files;
  for (const auto& dirent : it) {
    if (!dirent.is_regular_file()) continue;
    if (dirent.path().extension() != ".json") continue;
    files.push_back(dirent.path().string());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "registry dir %s holds no .json entries\n",
                 dir.c_str());
    return 1;
  }

  std::vector<RunEntry> entries;
  for (const std::string& file : files) {
    esr::JsonValue root;
    RunEntry entry;
    std::string error;
    if (!ReadJsonFile(file, &root, &error) ||
        !ParseEntry(root, file, &entry, &error)) {
      // Skip non-envelope JSON (a stray report dropped in the dir) with a
      // warning instead of failing the whole trend.
      std::fprintf(stderr, "skipping %s: %s\n", file.c_str(),
                   error.c_str());
      continue;
    }
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) {
    std::fprintf(stderr, "no parseable registry entries in %s\n",
                 dir.c_str());
    return 1;
  }
  std::printf("registry %s: %zu entr%s\n\n", dir.c_str(), entries.size(),
              entries.size() == 1 ? "y" : "ies");
  return Analyze(std::move(entries));
}

// -- Gate -------------------------------------------------------------------

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
  for (const auto& [base, cur] : pairs) {
    std::vector<RunEntry> runs = {{"base", base, 0, {}},
                                  {"current", cur, 1, {}}};
    // A baseline never committed, or a report a bench failed to write,
    // is an error, not a skipped pair.
    for (RunEntry& run : runs) {
      esr::JsonValue root;
      std::string error;
      if (!ReadJsonFile(run.file, &root, &error) ||
          !ReadReport(root, &run.report, &error)) {
        std::fprintf(stderr, "error: %s: %s\n", run.file.c_str(),
                     error.c_str());
        return 1;
      }
    }
    const std::string figure = runs[0].report.figure;
    if (runs[1].report.figure != figure) {
      regressions.push_back("figure mismatch: baseline '" + figure +
                            "' vs current '" + runs[1].report.figure + "'");
      continue;
    }
    if (runs[0].report.series != runs[1].report.series) {
      regressions.push_back(figure +
                            ": baseline and current hold different series");
    }
    RenderFigure(figure, std::move(runs), /*strict=*/true, &regressions);
  }
  return Summarize("bench gate", regressions);
}

}  // namespace

int Bench(const std::vector<std::string>& args) {
  bool demo = false;
  bool demo_regression = false;
  std::vector<std::string> checks;
  std::vector<std::string> dirs;
  if (!ParseFlags(args,
                  {{"--demo", &demo}, {"--demo-regression", &demo_regression},
                   {"--check", &checks}},
                  &dirs)) {
    return Usage();
  }
  // Exactly one mode: a registry dir, a demo, or the --check gate.
  const size_t modes = dirs.size() + (demo ? 1 : 0) +
                       (demo_regression ? 1 : 0) + (checks.empty() ? 0 : 1);
  if (modes != 1) return Usage();
  if (!checks.empty()) return RunChecks(checks);
  if (demo || demo_regression) return RunDemo(demo_regression);
  return RunTrend(dirs[0]);
}

}  // namespace esr::cli
