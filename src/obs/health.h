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
/// drivers without a sharded engine (shard_imbalance is then inert,
/// never unhealthy).
struct HealthInput {
  std::vector<int64_t> shard_ops;
};

// -- Report -----------------------------------------------------------------

struct HealthReport {
  std::string source;
  double window_s = 1.0;
  size_t windows = 0;
  std::vector<Alert> alerts;
  bool healthy() const { return alerts.empty(); }
};

// -- Monitor ----------------------------------------------------------------

/// Runs the five detectors, each at its one calibration (obs/health.cc),
/// and accumulates the alert journal:
///   - abort_livelock: sustained zero commits while aborting;
///   - thrashing_bistability: committed-per-window splitting into two
///     regimes at high MPL;
///   - headroom_exhaustion: a node's epsilon headroom draining toward
///     zero, or below it;
///   - certification_stall: the certified-through watermark lagging the
///     window boundary;
///   - shard_imbalance: one shard carrying a multiple of the mean
///     per-shard op rate (HealthInput::shard_ops).
/// Feed it live (one OnWindow per closed window, e.g. threaded_server's
/// sampler) or replay a recorded series through AnalyzeSeries. The result
/// is identical either way: detectors see only the window stream, so
/// offline replay of a recorded run reproduces exactly the alerts a live
/// monitor would have raised. Each alert is logged (ESR_LOG) as it opens.
class HealthMonitor {
 public:
  /// `source` and `window_s` are echoed into the report; `node_names`
  /// are index-aligned with SeriesWindow::nodes (a node without a name
  /// is blamed by its index).
  HealthMonitor(std::string source, double window_s,
                std::vector<std::string> node_names);
  ~HealthMonitor();

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  void OnWindow(const SeriesWindow& window,
                const HealthInput& input = HealthInput());

  HealthReport Report() const;

  /// Publishes `alert.count` plus one `alert.active.<detector>` gauge
  /// per detector (1 while an episode is open). The Prometheus
  /// exposition renders these as esr_alert_count and
  /// esr_alert_active{detector="..."}.
  void ExportGauges(MetricRegistry* metrics) const;

 private:
  struct Detectors;

  std::string source_;
  double window_s_;
  std::vector<Alert> alerts_;
  size_t windows_ = 0;
  std::unique_ptr<Detectors> detectors_;
};

// -- Offline analysis -------------------------------------------------------

/// Replays a recorded series through a fresh HealthMonitor, taking the
/// source, window_s and node names from the series. Purely a function of
/// the series bytes — the bench harness relies on this for --jobs
/// byte-identity.
HealthReport AnalyzeSeries(const RunSeries& series);

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
