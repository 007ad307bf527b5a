#include "harness/harness.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "obs/exporter.h"
#include "obs/series.h"
#include "obs/trace.h"

namespace esr {
namespace bench {
namespace {

/// Merges `seeds` per-seed runs into one averaged point, in seed order.
/// This is the single merge path for both the serial and the parallel
/// executor, so their arithmetic — and therefore their output bytes —
/// cannot diverge.
AveragedResult MergeSeedResults(const SimResult* runs, int seeds) {
  AveragedResult avg;
  std::vector<double> throughputs;
  for (int i = 0; i < seeds; ++i) {
    const SimResult& r = runs[i];
    throughputs.push_back(r.throughput());
    avg.throughput += r.throughput();
    avg.committed += static_cast<double>(r.committed);
    avg.aborts += static_cast<double>(r.aborts);
    avg.ops_executed += static_cast<double>(r.ops_executed);
    avg.inconsistent_ops += static_cast<double>(r.inconsistent_ops);
    avg.waits += static_cast<double>(r.waits);
    avg.ops_per_committed_txn += r.ops_per_committed_txn();
    avg.query_ops_per_committed_query += r.query_ops_per_committed_query();
    avg.avg_import_per_query += r.avg_import_per_query();
    avg.avg_txn_latency_ms += r.avg_txn_latency_ms();
    avg.latency_ms.Merge(r.latency_ms);
  }
  const double n = static_cast<double>(seeds);
  avg.throughput /= n;
  avg.committed /= n;
  avg.aborts /= n;
  avg.ops_executed /= n;
  avg.inconsistent_ops /= n;
  avg.waits /= n;
  avg.ops_per_committed_txn /= n;
  avg.query_ops_per_committed_query /= n;
  avg.avg_import_per_query /= n;
  avg.avg_txn_latency_ms /= n;
  if (throughputs.size() > 1) {
    double m2 = 0.0;
    for (const double t : throughputs) {
      m2 += (t - avg.throughput) * (t - avg.throughput);
    }
    avg.throughput_stddev =
        std::sqrt(m2 / static_cast<double>(throughputs.size() - 1));
    if (avg.throughput > 0.0) {
      avg.ci90_rel = Ci90HalfWidth(throughputs) / avg.throughput;
    }
  }
  return avg;
}

/// Nominal calibration / series sampling window (virtual seconds); also
/// the unit MSER-5 truncation points are expressed in.
constexpr double kSeriesWindowS = 1.0;

}  // namespace

RunScale RunScale::FromEnv() {
  const char* full = std::getenv("ESR_BENCH_FULL");
  const ScalePreset& preset =
      (full != nullptr && std::strcmp(full, "0") != 0) ? kFullScale
                                                       : kQuickScale;
  RunScale scale;
  scale.warmup_s = preset.warmup_s;
  scale.measure_s = preset.measure_s;
  scale.seeds = preset.seeds;
  scale.preset = preset.name;
  return scale;
}

std::string FlagValue(int argc, char** argv, const char* flag,
                      const char* env_var) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  if (env_var != nullptr) {
    const char* env = std::getenv(env_var);
    if (env != nullptr) return env;
  }
  return "";
}

int JobsFromArgs(int argc, char** argv) {
  int jobs = 0;
  const std::string value = FlagValue(argc, argv, "--jobs", "ESR_BENCH_JOBS");
  if (!value.empty()) {
    // A plain decimal with nothing after the digits: "2x" or "-1" must
    // not silently run some other worker count.
    errno = 0;
    char* end = nullptr;
    const long long parsed = std::strtoll(value.c_str(), &end, 10);
    const bool valid = value[0] >= '0' && value[0] <= '9' && *end == '\0' &&
                       errno != ERANGE && parsed >= 1 && parsed <= INT_MAX;
    if (valid) {
      jobs = static_cast<int>(parsed);
    } else {
      std::fprintf(stderr, "ignoring invalid --jobs/ESR_BENCH_JOBS '%s'\n",
                   value.c_str());
    }
  }
  if (jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs = hw == 0 ? 1 : static_cast<int>(hw);
  }
  if (jobs > 1 && GlobalTrace().enabled()) {
    std::fprintf(stderr,
                 "--trace captures one coherent run: forcing --jobs 1 "
                 "(was %d)\n",
                 jobs);
    jobs = 1;
  }
  return jobs;
}

std::string SeriesPathFromArgs(int argc, char** argv) {
  return FlagValue(argc, argv, "--series", nullptr);
}

std::string HealthPathFromArgs(int argc, char** argv) {
  return FlagValue(argc, argv, "--health", nullptr);
}

bool CertifyFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--certify") == 0) return true;
  }
  return false;
}

void ParallelFor(size_t count, int jobs,
                 const std::function<void(size_t)>& task) {
  const size_t workers =
      std::min(count, static_cast<size_t>(jobs < 1 ? 1 : jobs));
  if (workers <= 1) {
    for (size_t i = 0; i < count; ++i) task(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&next, count, &task] {
      for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        task(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

uint64_t SeedForRun(int run_index) {
  return static_cast<uint64_t>(run_index + 1) * 7919;
}

Sweep::Sweep(const RunScale& scale, int jobs)
    : scale_(scale),
      jobs_(jobs < 1 ? 1 : jobs),
      coordinator_(std::this_thread::get_id()) {
  // Defense in depth: JobsFromArgs already clamps while a capture is
  // active, but a Sweep constructed with an explicit jobs count must not
  // let workers race the recorder either.
  if (jobs_ > 1 && GlobalTrace().enabled()) jobs_ = 1;
}

size_t Sweep::Add(const ClusterOptions& options) {
  ESR_CHECK(!ran_) << "Sweep::Add after Run";
  configs_.push_back(options);
  return configs_.size() - 1;
}

void Sweep::set_series_export(std::string path, std::string source) {
  ESR_CHECK(!ran_) << "Sweep::set_series_export after Run";
  series_path_ = std::move(path);
  series_source_ = std::move(source);
}

void Sweep::set_certify(bool on) {
  ESR_CHECK(!ran_) << "Sweep::set_certify after Run";
  certify_ = on;
}

void Sweep::set_health(std::string path) {
  ESR_CHECK(!ran_) << "Sweep::set_health after Run";
  health_path_ = std::move(path);
}

void Sweep::ResolveWarmup() {
  // Calibration run: the last scheduled config (the sweeps schedule
  // load-ascending, so this is the slowest-settling one the warmup must
  // cover), standard first seed, zero warmup, and a stretched measure
  // window — MSER-5 wants a healthy batch count (about a dozen) and the
  // startup ramp inside the sampled series it is asked to truncate.
  ClusterOptions calibration = configs_.back();
  calibration.seed = SeedForRun(0);
  calibration.warmup_s = 0.0;
  calibration.measure_s =
      std::max(60.0, 2.0 * (scale_.warmup_s + scale_.measure_s));
  calibration.collect_series = true;
  calibration.series_window_s = kSeriesWindowS;
  calibration.series_source = "mser5-calibration";
  calibration.owns_trace = false;  // never perturb a --trace capture
  const SimResult probe = RunCluster(calibration);
  const std::vector<double> throughput = probe.series.ThroughputSeries();

  const MserResult mser = Mser5Truncation(throughput);
  if (!mser.ok) {
    std::fprintf(stderr,
                 "MSER-5 found no steady state in %zu windows; keeping "
                 "preset warmup %.1fs\n",
                 throughput.size(), scale_.warmup_s);
    scale_.warmup_source = "preset-fallback";
  } else {
    const double raw_s =
        static_cast<double>(mser.truncation_windows) * kSeriesWindowS;
    // Never trust less than one window of warmup, and never let a noisy
    // calibration eat more than half the measurement budget. The bounds
    // can cross on sub-window test scales (measure_s < 2 windows), where
    // the budget cap wins.
    const double floor_s = std::min(kSeriesWindowS, scale_.measure_s / 2.0);
    scale_.warmup_s = std::clamp(raw_s, floor_s, scale_.measure_s / 2.0);
    scale_.warmup_source = "mser5";
    scale_.mser_raw_truncation_s = raw_s;
    scale_.mser_statistic = mser.statistic;
    std::fprintf(stderr,
                 "MSER-5 warmup: %.1fs (truncation %.1fs over %zu windows, "
                 "preset was %.1fs)\n",
                 scale_.warmup_s, raw_s, throughput.size(),
                 configs_[0].warmup_s);
  }
  for (ClusterOptions& config : configs_) {
    config.warmup_s = scale_.warmup_s;
  }
}

void Sweep::Run() {
  ESR_CHECK(!ran_) << "Sweep::Run called twice";
  ran_ = true;
  if (configs_.empty()) return;
  // Warmup resolution runs on the coordinator, before the pool, and is
  // deterministic — so the resolved scale (and every downstream byte) is
  // the same for any jobs count.
  if (auto_warmup_) ResolveWarmup();
  const int seeds = scale_.seeds;
  std::vector<SimResult> raw(configs_.size() * static_cast<size_t>(seeds));
  // Worker-pool phase: every (config, seed) run is independent and writes
  // only its own pre-sized slot. With jobs == 1 this executes inline on
  // the coordinator in the exact order the serial harness always used
  // (config-major, seed-minor), preserving --trace's last-run-wins export.
  const size_t series_task = raw.size() - 1;
  auto run_task = [&](size_t task, bool certify) {
    ClusterOptions options = configs_[task / static_cast<size_t>(seeds)];
    options.seed = SeedForRun(static_cast<int>(task % seeds));
    // A certified run must own the global recorder (the certifier
    // subscribes to it); it only ever executes on the coordinator with no
    // workers running, so ownership is safe.
    options.owns_trace = certify || jobs_ == 1;
    options.certify = certify;
    if ((!series_path_.empty() || !health_path_.empty()) &&
        task == series_task) {
      // Telemetry rides on the last scheduled run: sampling is purely
      // observational, and pinning the exporter by schedule position
      // keeps the file identical for any jobs count. Health analysis
      // replays the same windows, so it pins the same run.
      options.collect_series = true;
      options.series_window_s = kSeriesWindowS;
      options.series_source =
          series_source_ + " config=" +
          std::to_string(task / static_cast<size_t>(seeds)) +
          " seed=" + std::to_string(options.seed);
    }
    raw[task] = RunCluster(options);
  };
  // With certification on, the pool skips the last task; the coordinator
  // runs it afterwards with the certifier attached. Same schedule
  // position, same seed, same options otherwise — so the run's results
  // (certification is purely observational) and every output byte match
  // the uncertified sweep at any jobs count.
  const size_t pool_tasks = certify_ ? raw.size() - 1 : raw.size();
  ParallelFor(pool_tasks, jobs_,
              [&](size_t task) { run_task(task, false); });
  if (certify_) {
    run_task(raw.size() - 1, true);
    certification_ = raw.back().certification;
    if (!certification_.enabled) {
      std::fprintf(stderr,
                   "streaming certification: SKIPPED (tracing compiled "
                   "out)\n");
    } else if (certification_.certified()) {
      std::fprintf(stderr,
                   "streaming certification: PASS — certified through "
                   "%.1fs (%zu walks, %zu charges over %zu windows)\n",
                   certification_.certified_through_s,
                   certification_.walks_replayed,
                   certification_.charges_applied,
                   certification_.windows_closed);
    } else {
      std::fprintf(stderr,
                   "streaming certification: FAIL — %zu violation(s); "
                   "watermark froze at %.1fs\n",
                   certification_.violations.size(),
                   certification_.certified_through_s);
    }
  }
  // Merge phase, coordinator only: Histogram::Merge (and the averaging
  // arithmetic) is single-threaded by contract — see common/metrics.h.
  ESR_CHECK(std::this_thread::get_id() == coordinator_)
      << "Sweep results must be merged on the coordinating thread";
  results_.resize(configs_.size());
  for (size_t c = 0; c < configs_.size(); ++c) {
    results_[c] =
        MergeSeedResults(&raw[c * static_cast<size_t>(seeds)], seeds);
  }
  if (!series_path_.empty()) {
    const RunSeries& series = raw[series_task].series;
    const Status status = ExportSeriesCsvToFile(series, series_path_);
    if (!status.ok()) {
      std::fprintf(stderr, "series export failed: %s\n",
                   status.ToString().c_str());
    } else {
      std::fprintf(stderr, "wrote %zu telemetry windows to %s\n",
                   series.windows.size(), series_path_.c_str());
    }
  }
  if (!health_path_.empty()) {
    // Offline replay of the pinned run's windows: a pure function of
    // the series, so the journal bytes are --jobs-independent.
    health_ = AnalyzeSeries(raw[series_task].series);
    const Status status = WriteHealthJsonToFile(health_, health_path_);
    if (!status.ok()) {
      std::fprintf(stderr, "health journal export failed: %s\n",
                   status.ToString().c_str());
    } else if (health_.healthy()) {
      std::fprintf(stderr,
                   "health: HEALTHY over %zu windows — journal at %s\n",
                   health_.windows, health_path_.c_str());
    } else {
      std::fprintf(stderr,
                   "health: %zu alert(s) over %zu windows — journal at %s\n",
                   health_.alerts.size(), health_.windows,
                   health_path_.c_str());
    }
  }
}

const AveragedResult& Sweep::Result(size_t handle) const {
  ESR_CHECK(ran_) << "Sweep::Result before Run";
  ESR_CHECK(handle < results_.size()) << "bad sweep handle " << handle;
  return results_[handle];
}

AveragedResult RunAveraged(ClusterOptions options, const RunScale& scale,
                           int jobs) {
  Sweep sweep(scale, jobs);
  // Callers of RunAveraged pass fully resolved options (tests pin exact
  // warmups); no calibration pass here.
  sweep.set_auto_warmup(false);
  sweep.Add(options);
  sweep.Run();
  return sweep.Result(0);
}

ClusterOptions BaseOptions(Inconsistency til, Inconsistency tel, int mpl,
                           const RunScale& scale) {
  ClusterOptions opt;
  opt.mpl = mpl;
  opt.workload.til = til;
  opt.workload.tel = tel;
  opt.warmup_s = scale.warmup_s;
  opt.measure_s = scale.measure_s;
  return opt;
}

ClusterOptions BaseOptions(EpsilonLevel level, int mpl,
                           const RunScale& scale) {
  const TransactionLimits limits = LimitsForLevel(level);
  return BaseOptions(limits.til, limits.tel, mpl, scale);
}

Table::Table(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

void Table::AddRow(const std::vector<std::string>& cells) {
  rows_.push_back(cells);
}

void Table::Print() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); ++c) {
      std::printf("%s%*s", c == 0 ? "" : "  ",
                  static_cast<int>(widths[c]), cells[c].c_str());
    }
    std::printf("\n");
  };
  print_row(columns_);
  size_t total = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c == 0 ? 0 : 2);
  }
  for (size_t i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::Int(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v + 0.5));
  return buf;
}

std::string Table::NumCi(double v, double ci90_rel, int precision) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.*f ±%.1f%%%s", precision, v,
                100.0 * ci90_rel,
                ci90_rel > kCiFlagThreshold ? "!" : "");
  return buf;
}

std::string JsonReport::PathFromArgs(int argc, char** argv) {
  return FlagValue(argc, argv, "--json", nullptr);
}

JsonReport::JsonReport(std::string figure, const RunScale& scale)
    : figure_(std::move(figure)), scale_(scale) {}

void JsonReport::AddPoint(const std::string& series, double x,
                          const AveragedResult& result) {
  for (auto& entry : series_) {
    if (entry.first == series) {
      entry.second.push_back(Point{x, result});
      return;
    }
  }
  series_.emplace_back(series, std::vector<Point>{Point{x, result}});
}

void JsonReport::Write(std::ostream& out) const {
  JsonWriter w(out);
  w.BeginObject();
  w.KV("figure", figure_);
  w.Key("scale");
  w.BeginObject();
  w.KV("warmup_s", scale_.warmup_s);
  w.KV("measure_s", scale_.measure_s);
  w.KV("seeds", static_cast<int64_t>(scale_.seeds));
  w.KV("preset", scale_.preset);
  w.KV("warmup_source", scale_.warmup_source);
  w.KV("mser_raw_truncation_s", scale_.mser_raw_truncation_s);
  w.KV("mser_statistic", scale_.mser_statistic);
  w.EndObject();
  w.Key("series");
  w.BeginObject();
  for (const auto& [name, points] : series_) {
    w.Key(name);
    w.BeginArray();
    for (const Point& p : points) {
      const AveragedResult& r = p.result;
      w.BeginObject();
      w.KV("x", p.x);
      w.KV("throughput", r.throughput);
      w.KV("throughput_stddev", r.throughput_stddev);
      w.KV("ci90_rel", r.ci90_rel);
      w.KV("committed", r.committed);
      w.KV("aborts", r.aborts);
      w.KV("ops_executed", r.ops_executed);
      w.KV("inconsistent_ops", r.inconsistent_ops);
      w.KV("waits", r.waits);
      w.KV("ops_per_committed_txn", r.ops_per_committed_txn);
      w.KV("query_ops_per_committed_query",
           r.query_ops_per_committed_query);
      w.KV("avg_import_per_query", r.avg_import_per_query);
      w.KV("avg_txn_latency_ms", r.avg_txn_latency_ms);
      w.Key("latency_ms");
      w.BeginObject();
      const PercentileSummary pct = r.latency_ms.Percentiles();
      w.KV("count", r.latency_ms.count());
      w.KV("mean", r.latency_ms.mean());
      w.KV("min", r.latency_ms.min());
      w.KV("max", r.latency_ms.max());
      w.KV("stddev", r.latency_ms.stddev());
      w.KV("p50", pct.p50);
      w.KV("p90", pct.p90);
      w.KV("p99", pct.p99);
      w.KV("p999", pct.p999);
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  w.EndObject();
}

Status JsonReport::WriteToFile(const std::string& path) const {
  if (path.empty()) return Status::OK();
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open bench JSON output file: " + path);
  }
  Write(out);
  out << "\n";
  out.flush();
  if (!out.good()) {
    return Status::Internal("failed writing bench JSON to: " + path);
  }
  std::fprintf(stderr, "wrote bench JSON to %s\n", path.c_str());
  return Status::OK();
}

std::string TraceCapture::PathFromArgs(int argc, char** argv) {
  return FlagValue(argc, argv, "--trace", nullptr);
}

TraceCapture::TraceCapture(int argc, char** argv)
    : path_(PathFromArgs(argc, argv)) {
  if (path_.empty()) return;
  GlobalTrace().Reset();
  GlobalTrace().set_enabled(true);
}

TraceCapture::~TraceCapture() {
  if (path_.empty()) return;
  GlobalTrace().set_enabled(false);
  const Status s = GlobalTrace().ExportChromeTraceToFile(path_);
  if (!s.ok()) {
    std::fprintf(stderr, "trace export failed: %s\n", s.ToString().c_str());
    return;
  }
  std::fprintf(stderr, "wrote %zu trace events to %s\n",
               GlobalTrace().size(), path_.c_str());
}

void PrintHeader(const std::string& figure, const std::string& paper_claim,
                 const RunScale& scale) {
  std::printf("=== %s ===\n", figure.c_str());
  std::printf("Paper: %s\n", paper_claim.c_str());
  std::printf(
      "Scale: %s — %.0fs measure x %d seeds, MSER-5 warmup "
      "(preset %.0fs fallback; ESR_BENCH_FULL=1 for paper-scale)\n\n",
      scale.preset.c_str(), scale.measure_s, scale.seeds, scale.warmup_s);
}

}  // namespace bench
}  // namespace esr
