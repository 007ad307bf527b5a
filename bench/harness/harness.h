#ifndef ESR_BENCH_HARNESS_HARNESS_H_
#define ESR_BENCH_HARNESS_HARNESS_H_

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "esr/limits.h"
#include "sim/cluster.h"

namespace esr {
namespace bench {

/// One named run-length preset. The two instances below are the single
/// source of truth for the quick/full literals: RunScale::FromEnv reads
/// them, and the MSER-5 fallback warmup comes from whichever preset is in
/// effect — no scattered copies of the numbers.
struct ScalePreset {
  const char* name;
  double warmup_s;
  double measure_s;
  int seeds;
};

/// Default: fast enough for `for b in build/bench/*; do $b; done`.
/// 60 s x 5 seeds keeps pre-thrashing 90% CIs inside the paper's +/-3%
/// budget (deep-thrashing points are bistable and stay wide at any
/// affordable seed count — the CI flag marks them honestly).
inline constexpr ScalePreset kQuickScale{"quick", 3.0, 60.0, 5};
/// ESR_BENCH_FULL=1: paper-scale windows and more seeds (tighter
/// confidence; the paper reports 90% CIs within +/-3%).
inline constexpr ScalePreset kFullScale{"full", 5.0, 120.0, 7};

/// Run-length configuration for the figure harnesses, seeded from a
/// ScalePreset. `warmup_s` starts as the preset value; Sweep::Run
/// replaces it with the MSER-5 truncation point resolved from a
/// calibration run (falling back to the preset on heuristic failure) and
/// records the provenance here, so JsonReport can emit the warmup that
/// was actually used.
struct RunScale {
  double warmup_s = kQuickScale.warmup_s;
  double measure_s = kQuickScale.measure_s;
  int seeds = kQuickScale.seeds;
  /// Preset the scale came from ("quick" or "full").
  std::string preset = kQuickScale.name;
  /// How warmup_s was decided: "preset" (untouched preset value),
  /// "mser5" (Sweep calibration run), or "preset-fallback" (MSER-5
  /// found no steady state; preset value kept).
  std::string warmup_source = "preset";
  /// Unclamped MSER-5 truncation point, seconds (0 unless
  /// warmup_source == "mser5").
  double mser_raw_truncation_s = 0.0;
  /// The minimized MSER statistic (0 unless warmup_source == "mser5").
  double mser_statistic = 0.0;

  /// Reads ESR_BENCH_FULL from the environment and applies the matching
  /// preset.
  static RunScale FromEnv();
};

/// Shared `--flag <value>` scan for the figure binaries: the first
/// `<flag> <value>` pair anywhere in argv wins over the `env_var`
/// environment variable (pass nullptr for no fallback); empty string when
/// neither is present.
std::string FlagValue(int argc, char** argv, const char* flag,
                      const char* env_var);

/// Worker count for the sweep executor: `--jobs N` wins over
/// ESR_BENCH_JOBS; defaults to std::thread::hardware_concurrency().
/// Forced to 1 (with a stderr note) while a `--trace` capture is active,
/// because the global trace recorder records one coherent run at a time.
int JobsFromArgs(int argc, char** argv);

/// Output path for per-window run telemetry: `--series <path>`; empty
/// (export disabled) when absent.
/// Wire it into the executor with Sweep::set_series_export.
std::string SeriesPathFromArgs(int argc, char** argv);

/// Streaming-certification toggle: true when `--certify` appears anywhere
/// in argv. Wire it into the executor with Sweep::set_certify.
bool CertifyFromArgs(int argc, char** argv);

/// Output path for the windowed anomaly-detection journal (obs/health.h):
/// `--health <path>`; empty (health analysis disabled) when absent. Wire
/// it into the executor with Sweep::set_health.
std::string HealthPathFromArgs(int argc, char** argv);

/// Runs tasks [0, count) across up to `jobs` worker threads pulling from
/// a shared index, inline on the calling thread when jobs <= 1. Tasks
/// must be independent; result merging belongs on the calling thread
/// after this returns (see Histogram's thread-safety contract).
void ParallelFor(size_t count, int jobs,
                 const std::function<void(size_t)>& task);

/// Seed of the k-th (0-based) run of an averaged point. Exposed so
/// binaries that drive Cluster directly average over the same seeds the
/// standard executor uses.
uint64_t SeedForRun(int run_index);

/// The canonical high-conflict experiment configuration of Sec. 7 (about
/// 1000 objects, ~20-object hot set, query ETs ~20 ops / update ETs ~6
/// ops, values 1000..9999) with the given transaction-level bounds.
ClusterOptions BaseOptions(EpsilonLevel level, int mpl,
                           const RunScale& scale);
ClusterOptions BaseOptions(Inconsistency til, Inconsistency tel, int mpl,
                           const RunScale& scale);

/// Averaged metrics over `scale.seeds` runs of the same configuration
/// (only the seed differs).
struct AveragedResult {
  double throughput = 0.0;
  /// Sample standard deviation of throughput across seeds (the paper
  /// reports 90% confidence intervals within +/-3%; this is the analogous
  /// dispersion figure for our seeds).
  double throughput_stddev = 0.0;
  /// Relative half-width of the 90% confidence interval of the mean
  /// throughput across seeds (Student-t, see common/stats.h); 0 with
  /// fewer than two seeds. Tables render it via Table::NumCi; points
  /// above Table::kCiFlagThreshold are flagged.
  double ci90_rel = 0.0;
  double committed = 0.0;
  double aborts = 0.0;
  double ops_executed = 0.0;
  double inconsistent_ops = 0.0;
  double waits = 0.0;
  double ops_per_committed_txn = 0.0;
  double query_ops_per_committed_query = 0.0;
  double avg_import_per_query = 0.0;
  double avg_txn_latency_ms = 0.0;
  /// Commit-latency distribution (ms) merged across all seeds' runs;
  /// source of the percentile columns in the JSON report.
  Histogram latency_ms;
};

/// Deterministic worker-pool sweep executor for the figure binaries. A
/// figure schedules every averaged point up front (`Add`, in table
/// order), calls `Run()` once, then reads results back by handle in the
/// same order it scheduled them:
///
///   Sweep sweep(scale, JobsFromArgs(argc, argv));
///   for (...) handles.push_back(sweep.Add(BaseOptions(...)));
///   sweep.Run();
///   for (...) consume(sweep.Result(handles[i]));
///
/// `Run()` fans the individual (config, seed) simulator runs across the
/// worker pool; each run is self-contained (private EventQueue, Server,
/// MetricRegistry; the global trace recorder is never touched by workers)
/// and deterministic given its seed, and the per-seed SimResults are
/// merged into AveragedResults on the calling thread in seed order — so
/// the results, and therefore every table row and JSON byte a figure
/// emits, are identical for any jobs count, including jobs == 1.
class Sweep {
 public:
  Sweep(const RunScale& scale, int jobs);

  /// Effective worker count (after the trace-capture clamp).
  int jobs() const { return jobs_; }

  /// Schedules one averaged point; returns its result handle. Handles are
  /// assigned sequentially from 0 in Add order. Must precede Run().
  size_t Add(const ClusterOptions& options);

  /// Disables the MSER-5 calibration run: every scheduled config keeps
  /// the fixed warmup it was built with. For tests and callers that
  /// already control warmup explicitly (RunAveraged uses this).
  void set_auto_warmup(bool on) { auto_warmup_ = on; }

  /// After Run(), exports the per-window telemetry of the last scheduled
  /// (config, seed) run as series CSV to `path` (no-op when empty).
  /// `source` labels the series, typically the figure id. Collection is
  /// purely observational, so enabling it never changes results — and the
  /// exporting run is fixed by schedule position, so the file is
  /// identical for any --jobs count.
  void set_series_export(std::string path, std::string source);

  /// Rides streaming certification (obs/stream_audit.h) on the last
  /// scheduled (config, seed) run — the same schedule position the series
  /// exporter pins, so when both are on they share one run and the series
  /// CSV carries the live watermark column. The certified run executes on
  /// the coordinator after the worker pool drains and owns the global
  /// trace recorder (workers never touch it), so every result and output
  /// byte stays identical for any --jobs count. Run() prints the verdict
  /// to stderr; read it back via certification().
  void set_certify(bool on);

  /// After Run(): the certified run's verdict (enabled == false unless
  /// set_certify(true) and tracing is compiled in).
  const StreamCertification& certification() const { return certification_; }

  /// After Run(), replays the pinned telemetry run's window series
  /// through the standard HealthMonitor detector set (obs/health.h) and
  /// writes the alert journal JSON to `path` (no-op when empty). Shares
  /// the series exporter's schedule position — the last scheduled
  /// (config, seed) run — and forces series collection on that run even
  /// when --series is off. The journal is a pure function of the pinned
  /// run's series, so its bytes are identical for any --jobs count.
  void set_health(std::string path);

  /// After Run(): the pinned run's health verdict (empty unless
  /// set_health was given a path).
  const HealthReport& health() const { return health_; }

  /// Executes all scheduled (config, seed) runs and merges their results;
  /// call exactly once, from the thread that constructed the Sweep.
  ///
  /// Unless set_auto_warmup(false), first resolves the warmup with a
  /// MSER-5 calibration run of the last scheduled config — sweeps
  /// schedule load-ascending, so that is the slowest-settling one — (seed
  /// SeedForRun(0), series sampling on, zero warmup so the ramp is in
  /// view): the truncation point from the committed-per-window series —
  /// clamped to [1s, measure_s / 2] — replaces every config's warmup_s.
  /// On heuristic failure the preset warmup stands and a warning is
  /// logged. The calibration runs on the coordinator before the worker
  /// pool and is deterministic, so output bytes stay independent of
  /// --jobs.
  void Run();

  const AveragedResult& Result(size_t handle) const;

  /// Scale actually in effect — warmup_s and its provenance resolved by
  /// Run()'s calibration. Figures hand this (not their pre-Run copy) to
  /// JsonReport so the report carries the real warmup.
  const RunScale& scale() const { return scale_; }

 private:
  void ResolveWarmup();

  RunScale scale_;
  int jobs_;
  /// Merging (AveragedResult::latency_ms.Merge in particular — Histogram
  /// is NOT thread-safe) is pinned to this thread; Run() enforces it.
  std::thread::id coordinator_;
  bool ran_ = false;
  bool auto_warmup_ = true;
  bool certify_ = false;
  StreamCertification certification_;
  HealthReport health_;
  std::string series_path_;
  std::string series_source_;
  std::string health_path_;
  std::vector<ClusterOptions> configs_;
  std::vector<AveragedResult> results_;
};

/// Runs `options` under each of `scale.seeds` seeds — fanned across
/// `jobs` workers when jobs > 1 — and merges on the calling thread.
/// Identical output for any jobs value.
AveragedResult RunAveraged(ClusterOptions options, const RunScale& scale,
                           int jobs = 1);

/// Fixed-width table printer for the figure harnesses.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  void AddRow(const std::vector<std::string>& cells);
  void Print() const;

  static std::string Num(double v, int precision = 2);
  static std::string Int(double v);

  /// CI half-widths above this relative value get a trailing '!' flag —
  /// the paper's "90% confidence intervals within +/-3%" budget.
  static constexpr double kCiFlagThreshold = 0.03;

  /// `"<v> ±c.c%"` cell: the value plus the relative 90% CI half-width
  /// across seeds (AveragedResult::ci90_rel), with a trailing '!' when
  /// the half-width exceeds kCiFlagThreshold.
  static std::string NumCi(double v, double ci90_rel, int precision = 2);

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints the standard harness banner: figure id, what the paper showed,
/// and the scale in effect.
void PrintHeader(const std::string& figure, const std::string& paper_claim,
                 const RunScale& scale);

/// Machine-readable companion to the printed tables: collects every
/// (series, x, AveragedResult) point a figure harness produces and writes
/// them as one JSON document, so plots and regression dashboards consume
/// the same numbers the tables show.
///
/// Output shape:
///   {"figure": "...",
///    "scale": {"warmup_s": _, "measure_s": _, "seeds": _, "preset": _,
///              "warmup_source": _, "mser_raw_truncation_s": _,
///              "mser_statistic": _},
///    "series": {"<name>": [{"x": _, "throughput": _, "ci90_rel": _, ...,
///                           "latency_ms": {"count": _, ..., "p999": _}},
///                          ...], ...}}
///
/// Construct it with Sweep::scale() (after Run) so the scale block
/// reports the MSER-resolved warmup, not the preset.
class JsonReport {
 public:
  /// Resolves the output path: a `--json <path>` pair anywhere in argv;
  /// empty string when absent (callers then skip writing).
  static std::string PathFromArgs(int argc, char** argv);

  JsonReport(std::string figure, const RunScale& scale);

  void AddPoint(const std::string& series, double x,
                const AveragedResult& result);

  /// Writes the document to `out` (no trailing newline).
  void Write(std::ostream& out) const;

  /// No-op returning OK when `path` is empty.
  Status WriteToFile(const std::string& path) const;

 private:
  struct Point {
    double x;
    AveragedResult result;
  };

  std::string figure_;
  RunScale scale_;
  /// Insertion-ordered series.
  std::vector<std::pair<std::string, std::vector<Point>>> series_;
};

/// RAII trace capture for figure binaries: when a `--trace <path>` pair
/// appears in argv, resets and enables the global trace recorder for the
/// harness's whole run and exports Chrome trace JSON on destruction. Inert (zero-overhead beyond one enabled
/// check per probe) when no path was given. Declare one at the top of
/// main(), before JobsFromArgs and the sweep runs — an active capture
/// forces the sweep serial so the export stays one coherent run:
///
///   esr::bench::TraceCapture trace(argc, argv);
class TraceCapture {
 public:
  /// `--trace <path>` anywhere in argv; empty (capture disabled) when
  /// absent.
  static std::string PathFromArgs(int argc, char** argv);

  TraceCapture(int argc, char** argv);
  /// Disables the recorder and writes the capture (a warning is printed
  /// on export if the ring dropped events).
  ~TraceCapture();

  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

  bool enabled() const { return !path_.empty(); }

 private:
  std::string path_;
};

}  // namespace bench
}  // namespace esr

#endif  // ESR_BENCH_HARNESS_HARNESS_H_
