#ifndef ESR_OBS_HEALTH_H_
#define ESR_OBS_HEALTH_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/series.h"

namespace esr {

// -- Alerts -----------------------------------------------------------------

enum class AlertSeverity : uint8_t {
  kWarn = 0,
  kError = 1,
};

const char* AlertSeverityName(AlertSeverity severity);

/// One detected anomaly episode. Episodes are windows-denominated: an
/// alert opens when its detector's condition has held long enough to be
/// credible and keeps extending `last_window` while the condition
/// persists, so a 70 s livelock is one alert with a 70-window evidence
/// range, not 70 alerts.
struct Alert {
  /// Detector slug, e.g. "abort_livelock".
  std::string detector;
  AlertSeverity severity = AlertSeverity::kWarn;
  /// Evidence window range, inclusive on both ends.
  size_t first_window = 0;
  size_t last_window = 0;
  /// Virtual (sim) or wall-clock (threaded server) seconds spanned by
  /// the evidence windows.
  double start_s = 0.0;
  double end_s = 0.0;
  /// Blamed hierarchy node, empty when the alert is not node-scoped.
  std::string node;
  /// Blamed shard, -1 when the alert is not shard-scoped.
  int shard = -1;
  /// Human-readable one-liner (deterministic — journals are compared
  /// byte-for-byte across --jobs levels).
  std::string message;
  /// Detector-specific numeric evidence, in a fixed per-detector order.
  std::vector<std::pair<std::string, double>> evidence;
  /// True while the condition still held at the last window fed to the
  /// monitor (live drivers export this as esr_alert_active).
  bool open = false;
};

/// Per-window side-channel input that is not part of SeriesWindow.
/// `shard_ops` carries this window's per-shard op deltas from the
/// sharded engine's `engine.shard<i>.ops` stats; leave empty for
/// drivers without a sharded engine (the ShardImbalanceDetector is then
/// inert, never unhealthy).
struct HealthInput {
  std::vector<int64_t> shard_ops;
};

// -- Detector options -------------------------------------------------------

/// Sustained near-zero commits with a live abort/restart rate: the
/// documented MPL 2/low episodic livelock (EXPERIMENTS.md) spent 70
/// consecutive seconds committing nothing while aborting 61-70
/// transactions per 5 s window.
struct AbortLivelockOptions {
  bool enabled = true;
  /// Consecutive qualifying windows before the alert opens.
  size_t min_windows = 5;
  /// A window qualifies when committed <= max_committed ...
  int64_t max_committed = 0;
  /// ... and aborted (or restarts) >= min_aborted. Distinguishes
  /// livelock (work churning, nothing finishing) from idleness.
  int64_t min_aborted = 1;
};

/// Rolling bimodality + coefficient-of-variation test on
/// committed-per-window at high MPL: the documented deep-thrashing
/// bistability (MPL >= 8) splits runs into ~17 tps and ~7 tps regimes.
struct ThrashingBistabilityOptions {
  bool enabled = true;
  /// Trailing windows the test runs over.
  size_t lookback = 20;
  /// Mean active MPL over the lookback must reach this before the test
  /// applies (the phenomenon is documented at MPL >= 8; stable MPL 3/6
  /// rows must never trip it).
  double min_mpl = 7.0;
  /// Coefficient of variation (stddev/mean) threshold.
  double min_cv = 0.4;
  /// The two throughput clusters (split at the lookback mean) must be
  /// separated by at least this fraction of the mean ...
  double min_separation_frac = 0.8;
  /// ... and each cluster must hold at least this fraction of the
  /// lookback windows (rejects one-off dips).
  double min_cluster_frac = 0.25;
};

/// Per-node epsilon headroom trending to zero before run end, from the
/// NodeHeadroomTracker samples riding each window. Healthy ESR runs
/// routinely brush low per-window headroom — transactions legitimately
/// spend most of their budget and the engine rejects the overdraft — so
/// a low reading alone is NOT an anomaly. The detector fires on two
/// shapes only: a *sustained monotone drain* (shared accumulators
/// emptying toward zero, as in replica-divergence scenarios), or
/// *negative* headroom (a violation the engine should have prevented).
struct HeadroomExhaustionOptions {
  bool enabled = true;
  /// Consecutive charged windows in the trend test.
  size_t lookback = 10;
  /// Alert when the fitted trend crosses zero within this many windows.
  double horizon_windows = 20.0;
  /// Trend alerts only fire once headroom is already below this
  /// fraction (a full tank draining slowly is not an emergency).
  double max_start_frac = 0.5;
  /// The lookback samples must be non-increasing within this tolerance
  /// (stationary noise breaks monotonicity almost surely; a genuine
  /// drain does not).
  double monotone_eps = 0.02;
  /// ... and the trailing half of the lookback must have fallen by at
  /// least this much on its own — the drain is ongoing, not a load
  /// ramp that already settled into a plateau.
  double min_decline = 0.1;
  /// Headroom falling *while load ramps up* is the expected response to
  /// the ramp, not a drain: the trend test is skipped when mean
  /// committed over the trailing half of the lookback exceeds the
  /// leading half's by more than this factor.
  double max_load_ramp = 1.2;
  /// Immediate kError alert strictly below this fraction. The default 0
  /// means: only negative headroom — an enforced-bound engine never
  /// goes below zero, so anything less is a violation.
  double exhausted_frac = 0.0;
};

/// Certified-through watermark lagging the window boundary: the
/// streaming certifier (obs/stream_audit.h) freezes its watermark at
/// the first violation, so a growing lag means either a violation or a
/// stalled certification pipeline.
struct CertificationStallOptions {
  bool enabled = true;
  /// Lag, in windows, beyond which the alert opens.
  double max_lag_windows = 3.0;
};

/// Max/mean per-shard op ratio from the sharded engine's
/// `engine.shard<i>.*` stats (live drivers only; see HealthInput).
struct ShardImbalanceOptions {
  bool enabled = true;
  /// max/mean per-shard ops ratio beyond which a window qualifies.
  double max_ratio = 4.0;
  /// Windows with fewer total ops than this are ignored (ratios over a
  /// handful of ops are noise).
  int64_t min_total_ops = 64;
  /// Consecutive qualifying windows before the alert opens.
  size_t min_windows = 2;
};

struct HealthOptions {
  /// Provenance echoed into the report/journal (defaults to the
  /// series' own source in AnalyzeSeries).
  std::string source;
  double window_s = 1.0;
  /// Hierarchy node names, index-aligned with SeriesWindow::nodes.
  std::vector<std::string> node_names;
  /// ESR_LOG(kWarning/kError) when an alert opens.
  bool log_alerts = true;
  AbortLivelockOptions livelock;
  ThrashingBistabilityOptions bistability;
  HeadroomExhaustionOptions headroom;
  CertificationStallOptions certification;
  ShardImbalanceOptions shard_imbalance;
};

// -- Report -----------------------------------------------------------------

struct HealthReport {
  std::string source;
  double window_s = 1.0;
  size_t windows = 0;
  std::vector<Alert> alerts;
  bool healthy() const { return alerts.empty(); }
};

// -- Detectors --------------------------------------------------------------

/// Where detectors deposit episodes. HealthMonitor implements this; a
/// test can substitute its own sink.
class AlertSink {
 public:
  virtual ~AlertSink() = default;
  /// Registers a new open episode, returns a handle for Extend/Close.
  virtual size_t OpenAlert(Alert alert) = 0;
  /// Extends an open episode's evidence range through `window`.
  virtual void ExtendAlert(size_t handle, size_t window, double end_s) = 0;
  /// Marks an episode's condition as cleared.
  virtual void CloseAlert(size_t handle) = 0;
};

/// A windowed anomaly detector. `OnWindow` is called once per closed
/// series window, in order; `Finish` once at end of run (close any
/// still-open episode bookkeeping there if needed — open alerts stay
/// `open` in the report, which is itself a finding).
class HealthDetector {
 public:
  virtual ~HealthDetector() = default;
  virtual const char* name() const = 0;
  virtual void OnWindow(size_t index, const SeriesWindow& window,
                        const HealthInput& input, AlertSink* sink) = 0;
  virtual void Finish(AlertSink* sink) { (void)sink; }
};

// -- Monitor ----------------------------------------------------------------

/// Hosts the detector set and accumulates the alert journal. Feed it
/// live (one OnWindow per closed window, e.g. threaded_server's
/// sampler) or replay a recorded series through AnalyzeSeries. The
/// result is identical either way: detectors see only the window
/// stream, so offline replay of a recorded run reproduces exactly the
/// alerts a live monitor would have raised.
class HealthMonitor : public AlertSink {
 public:
  explicit HealthMonitor(HealthOptions options = HealthOptions());
  ~HealthMonitor() override;

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Adds a custom detector beside the built-in five.
  void AddDetector(std::unique_ptr<HealthDetector> detector);

  void OnWindow(const SeriesWindow& window,
                const HealthInput& input = HealthInput());
  /// Idempotent end-of-run hook.
  void Finish();

  size_t windows_seen() const { return windows_; }
  const std::vector<Alert>& alerts() const { return alerts_; }
  /// Open episodes right now.
  size_t active_alerts() const;
  /// True when the named detector has an open episode.
  bool detector_active(const std::string& name) const;
  /// Registered detector names, in registration order.
  std::vector<std::string> detector_names() const;

  HealthReport Report() const;

  /// Publishes `alert.count` plus one `alert.active.<detector>` gauge
  /// per registered detector (1 while an episode is open). The
  /// Prometheus exposition renders these as esr_alert_count and
  /// esr_alert_active{detector="..."}.
  void ExportGauges(MetricRegistry* metrics) const;

  const HealthOptions& options() const { return options_; }

  // AlertSink:
  size_t OpenAlert(Alert alert) override;
  void ExtendAlert(size_t handle, size_t window, double end_s) override;
  void CloseAlert(size_t handle) override;

 private:
  HealthOptions options_;
  std::vector<std::unique_ptr<HealthDetector>> detectors_;
  std::vector<Alert> alerts_;
  size_t windows_ = 0;
  bool finished_ = false;
};

// -- Offline analysis -------------------------------------------------------

/// Replays a recorded series through a fresh HealthMonitor. Source,
/// window_s, and node names default from the series when unset in
/// `options`. Purely a function of the series bytes — the bench
/// harness relies on this for --jobs byte-identity.
HealthReport AnalyzeSeries(const RunSeries& series,
                           HealthOptions options = HealthOptions());

// -- Journal ----------------------------------------------------------------

/// JSON alert journal:
///   {"health": {"source", "window_s", "windows", "healthy",
///               "alert_count", "alerts": [{"detector", "severity",
///               "first_window", "last_window", "start_s", "end_s",
///               "node", "shard", "open", "message",
///               "evidence": {...}}]}}
void WriteHealthJson(const HealthReport& report, std::ostream& out);
Status WriteHealthJsonToFile(const HealthReport& report,
                             const std::string& path);

/// Parses WriteHealthJson output (`esr health --journal`, tests).
Result<HealthReport> ReadHealthJson(std::istream& in);
Result<HealthReport> ReadHealthJsonFile(const std::string& path);

/// Human-readable report (`esr health` default output).
void WriteHealthText(const HealthReport& report, std::ostream& out);

// -- Demo -------------------------------------------------------------------

/// Deterministic synthetic series reproducing the documented MPL 2/low
/// abort-livelock shape: healthy throughput except windows 12..25,
/// which commit nothing while aborting steadily. AnalyzeSeries over it
/// raises exactly one abort_livelock alert blaming windows 12..25.
RunSeries BuildLivelockDemoSeries();

/// Deterministic synthetic series reproducing the documented MPL >= 8
/// deep-thrashing bistability: committed-per-window alternates between
/// a ~17 tps and a ~7 tps regime in 4-window blocks at active MPL 9.
RunSeries BuildBistableDemoSeries();

}  // namespace esr

#endif  // ESR_OBS_HEALTH_H_
