#include "obs/health.h"

#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "obs/exporter.h"
#include "obs/json_value.h"

namespace esr {
namespace {

// Deterministic number formatting for alert messages (journals are
// compared byte-for-byte across --jobs levels).
std::string FormatNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string FormatCount(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

double WindowEnd(const SeriesWindow& w) { return w.start_s + w.duration_s; }

// -- Calibration ------------------------------------------------------------
//
// Each detector runs at one calibration, taken from the documented runs
// (EXPERIMENTS.md) and pinned on both sides of every edge by
// tests/obs/health_test.cc.

// abort_livelock: sustained near-zero commits with a live abort/restart
// rate. The documented MPL 2/low episodic livelock spent 70 consecutive
// seconds committing nothing while aborting 61-70 transactions per 5 s
// window.
/// Consecutive qualifying windows before the alert opens.
constexpr size_t kLivelockMinWindows = 5;
/// A window qualifies when committed <= kLivelockMaxCommitted ...
constexpr int64_t kLivelockMaxCommitted = 0;
/// ... and aborted (or restarts) >= kLivelockMinAborted. Distinguishes
/// livelock (work churning, nothing finishing) from idleness.
constexpr int64_t kLivelockMinAborted = 1;

// thrashing_bistability: rolling bimodality + coefficient-of-variation
// test on committed-per-window at high MPL. The documented deep-thrashing
// bistability (MPL >= 8) splits runs into ~17 tps and ~7 tps regimes.
/// Trailing windows the test runs over.
constexpr size_t kBistabilityLookback = 20;
/// Mean active MPL over the lookback must reach this before the test
/// applies (the phenomenon is documented at MPL >= 8; stable MPL 3/6 rows
/// must never trip it).
constexpr double kBistabilityMinMpl = 7.0;
/// Coefficient of variation (stddev/mean) threshold.
constexpr double kBistabilityMinCv = 0.4;
/// The two throughput clusters (split at the lookback mean) must be
/// separated by at least this fraction of the mean ...
constexpr double kBistabilityMinSeparationFrac = 0.8;
/// ... and each cluster must hold at least this fraction of the lookback
/// windows (rejects one-off dips).
constexpr double kBistabilityMinClusterFrac = 0.25;

// headroom_exhaustion: per-node epsilon headroom trending to zero before
// run end, from the NodeHeadroomTracker samples riding each window.
// Healthy ESR runs routinely brush low per-window headroom — transactions
// legitimately spend most of their budget and the engine rejects the
// overdraft — so a low reading alone is NOT an anomaly. The detector
// fires on two shapes only: a *sustained monotone drain* (shared
// accumulators emptying toward zero, as in replica-divergence scenarios),
// or *negative* headroom (a violation the engine should have prevented).
/// Consecutive charged windows in the trend test.
constexpr size_t kHeadroomLookback = 10;
/// Alert when the fitted trend crosses zero within this many windows.
constexpr double kHeadroomHorizonWindows = 20.0;
/// Trend alerts only fire once headroom is already below this fraction
/// (a full tank draining slowly is not an emergency).
constexpr double kHeadroomMaxStartFrac = 0.5;
/// The lookback samples must be non-increasing within this tolerance
/// (stationary noise breaks monotonicity almost surely; a genuine drain
/// does not).
constexpr double kHeadroomMonotoneEps = 0.02;
/// ... and the trailing half of the lookback must have fallen by at least
/// this much on its own — the drain is ongoing, not a load ramp that
/// already settled into a plateau.
constexpr double kHeadroomMinDecline = 0.1;
/// Headroom falling *while load ramps up* is the expected response to the
/// ramp, not a drain: the trend test is skipped when mean committed over
/// the trailing half of the lookback exceeds the leading half's by more
/// than this factor.
constexpr double kHeadroomMaxLoadRamp = 1.2;
/// Immediate kError alert strictly below this fraction: only negative
/// headroom — an enforced-bound engine never goes below zero, so anything
/// less is a violation.
constexpr double kHeadroomExhaustedFrac = 0.0;

// certification_stall: the certified-through watermark lagging the window
// boundary. The streaming certifier (obs/stream_audit.h) freezes its
// watermark at the first violation, so a growing lag means either a
// violation or a stalled certification pipeline.
/// Lag, in windows, beyond which the alert opens.
constexpr double kCertificationMaxLagWindows = 3.0;

// shard_imbalance: max/mean per-shard op ratio from the sharded engine's
// `engine.shard<i>.*` stats (live drivers only; see HealthInput).
/// max/mean per-shard ops ratio beyond which a window qualifies.
constexpr double kShardMaxRatio = 4.0;
/// Windows with fewer total ops than this are ignored (ratios over a
/// handful of ops are noise).
constexpr int64_t kShardMinTotalOps = 64;
/// Consecutive qualifying windows before the alert opens.
constexpr size_t kShardMinWindows = 2;

// -- Episodes ---------------------------------------------------------------

/// One detector's (or one headroom node's) place in the alert journal,
/// and the one open/extend/close rule every detector shares. Episodes are
/// windows-denominated: an alert opens when the detector's condition
/// starts to hold, extends through each window while it keeps holding,
/// and closes when it clears.
class EpisodeTracker {
 public:
  explicit EpisodeTracker(const char* detector) : detector_(detector) {}

  bool open() const { return open_; }

  /// Feeds whether the condition `holds` at window `index`. When an
  /// episode opens, `make_alert()` fills its severity, first window,
  /// start, blame, message and evidence; the tracker names the detector,
  /// ends the evidence range at `w`, logs the alert and appends it to
  /// `journal`.
  template <typename MakeAlert>
  void Update(bool holds, size_t index, const SeriesWindow& w,
              std::vector<Alert>* journal, MakeAlert&& make_alert) {
    if (!holds) {
      if (open_) (*journal)[handle_].open = false;
      open_ = false;
      return;
    }
    if (!open_) {
      Alert alert = make_alert();
      alert.detector = detector_;
      alert.open = true;
      if (alert.severity == AlertSeverity::kError) {
        ESR_LOG(kError) << "health: " << alert.detector
                        << " alert opened at window " << alert.first_window
                        << ": " << alert.message;
      } else {
        ESR_LOG(kWarning) << "health: " << alert.detector
                          << " alert opened at window " << alert.first_window
                          << ": " << alert.message;
      }
      handle_ = journal->size();
      journal->push_back(std::move(alert));
      open_ = true;
    }
    Alert& alert = (*journal)[handle_];
    alert.last_window = index;
    alert.end_s = WindowEnd(w);
  }

 private:
  const char* detector_;
  size_t handle_ = 0;
  bool open_ = false;
};

// -- Detectors --------------------------------------------------------------

struct AbortLivelock {
  static constexpr const char* kName = "abort_livelock";

  void OnWindow(size_t index, const SeriesWindow& w,
                std::vector<Alert>* journal) {
    const bool starved = w.committed <= kLivelockMaxCommitted;
    const bool churning = w.aborted >= kLivelockMinAborted ||
                          w.restarts >= kLivelockMinAborted;
    if (starved && churning) {
      if (streak == 0) {
        streak_start = index;
        streak_start_s = w.start_s;
        streak_aborted = 0;
        streak_committed = 0;
      }
      ++streak;
      streak_aborted += w.aborted;
      streak_committed += w.committed;
    } else {
      streak = 0;
    }
    const auto make_alert = [&] {
      Alert alert;
      alert.severity = AlertSeverity::kError;
      alert.first_window = streak_start;
      alert.start_s = streak_start_s;
      alert.message =
          "sustained abort livelock: >= " +
          FormatCount(static_cast<int64_t>(kLivelockMinWindows)) +
          " consecutive windows with <= " +
          FormatCount(kLivelockMaxCommitted) + " commits while aborting";
      alert.evidence.emplace_back("windows", static_cast<double>(streak));
      alert.evidence.emplace_back("aborted",
                                  static_cast<double>(streak_aborted));
      alert.evidence.emplace_back("committed",
                                  static_cast<double>(streak_committed));
      return alert;
    };
    episode.Update(streak >= kLivelockMinWindows, index, w, journal,
                   make_alert);
  }

  size_t streak = 0;
  size_t streak_start = 0;
  double streak_start_s = 0.0;
  int64_t streak_aborted = 0;
  int64_t streak_committed = 0;
  EpisodeTracker episode{kName};
};

struct ThrashingBistability {
  static constexpr const char* kName = "thrashing_bistability";

  void OnWindow(size_t index, const SeriesWindow& w,
                std::vector<Alert>* journal) {
    committed.push_back(static_cast<double>(w.committed));
    mpl.push_back(w.active_mpl);
    if (committed.size() > kBistabilityLookback) {
      committed.pop_front();
      mpl.pop_front();
    }
    if (committed.size() < kBistabilityLookback) return;

    const size_t n = committed.size();
    double mean = 0.0;
    double mean_mpl = 0.0;
    for (size_t i = 0; i < n; ++i) {
      mean += committed[i];
      mean_mpl += mpl[i];
    }
    mean /= static_cast<double>(n);
    mean_mpl /= static_cast<double>(n);

    bool bimodal = false;
    double cv = 0.0;
    double mean_low = 0.0;
    double mean_high = 0.0;
    if (mean_mpl >= kBistabilityMinMpl && mean > 0.0) {
      double var = 0.0;
      size_t low_n = 0;
      size_t high_n = 0;
      for (size_t i = 0; i < n; ++i) {
        const double d = committed[i] - mean;
        var += d * d;
        if (committed[i] < mean) {
          mean_low += committed[i];
          ++low_n;
        } else {
          mean_high += committed[i];
          ++high_n;
        }
      }
      var /= static_cast<double>(n);
      cv = std::sqrt(var) / mean;
      const size_t min_cluster = static_cast<size_t>(
          kBistabilityMinClusterFrac * static_cast<double>(n));
      if (low_n >= min_cluster && high_n >= min_cluster && low_n > 0 &&
          high_n > 0) {
        mean_low /= static_cast<double>(low_n);
        mean_high /= static_cast<double>(high_n);
        bimodal = cv >= kBistabilityMinCv &&
                  (mean_high - mean_low) >=
                      kBistabilityMinSeparationFrac * mean;
      }
    }

    const auto make_alert = [&] {
      Alert alert;
      alert.severity = AlertSeverity::kWarn;
      alert.first_window = index + 1 - n;
      alert.start_s = w.start_s - w.duration_s * static_cast<double>(n - 1);
      alert.message =
          "bistable throughput at high MPL: committed/window splits into ~" +
          FormatNum(mean_high) + " and ~" + FormatNum(mean_low) +
          " regimes (cv " + FormatNum(cv) + ", mean MPL " +
          FormatNum(mean_mpl) + ")";
      alert.evidence.emplace_back("cv", cv);
      alert.evidence.emplace_back("mean_high", mean_high);
      alert.evidence.emplace_back("mean_low", mean_low);
      alert.evidence.emplace_back("mean_mpl", mean_mpl);
      alert.evidence.emplace_back("lookback", static_cast<double>(n));
      return alert;
    };
    episode.Update(bimodal, index, w, journal, make_alert);
  }

  std::deque<double> committed;
  std::deque<double> mpl;
  EpisodeTracker episode{kName};
};

struct HeadroomExhaustion {
  static constexpr const char* kName = "headroom_exhaustion";

  struct Sample {
    double window = 0.0;
    double frac = 0.0;
    double committed = 0.0;
  };

  struct NodeState {
    std::deque<Sample> samples;
    EpisodeTracker episode{kName};
  };

  static double FitSlope(const std::deque<Sample>& pts) {
    const double n = static_cast<double>(pts.size());
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (const Sample& p : pts) {
      sx += p.window;
      sy += p.frac;
      sxx += p.window * p.window;
      sxy += p.window * p.frac;
    }
    const double denom = n * sxx - sx * sx;
    if (denom <= 0.0) return 0.0;
    return (n * sxy - sx * sy) / denom;
  }

  void OnWindow(size_t index, const SeriesWindow& w,
                std::vector<Alert>* journal) {
    if (nodes.size() < w.nodes.size()) nodes.resize(w.nodes.size());
    for (size_t i = 0; i < w.nodes.size(); ++i) {
      const SeriesNodeWindow& node = w.nodes[i];
      NodeState& st = nodes[i];
      if (node.charges <= 0) continue;
      st.samples.push_back(Sample{static_cast<double>(index),
                                  node.min_headroom_frac,
                                  static_cast<double>(w.committed)});
      if (st.samples.size() > kHeadroomLookback) st.samples.pop_front();

      const double latest = node.min_headroom_frac;
      bool firing = false;
      double slope = 0.0;
      double windows_to_zero = -1.0;
      const bool exhausted = latest < kHeadroomExhaustedFrac;
      if (!exhausted && st.samples.size() >= kHeadroomLookback &&
          latest <= kHeadroomMaxStartFrac) {
        bool monotone = true;
        for (size_t s = 1; s < st.samples.size(); ++s) {
          if (st.samples[s].frac >
              st.samples[s - 1].frac + kHeadroomMonotoneEps) {
            monotone = false;
            break;
          }
        }
        // The drain must be ongoing, not historical: a load ramp that
        // settled into a plateau declines over the full lookback but
        // not over its trailing half.
        const size_t mid = st.samples.size() / 2;
        const double recent_decline =
            st.samples[mid].frac - st.samples.back().frac;
        // Headroom falling while throughput is still ramping up is the
        // expected response to the ramp, not a drain.
        double lead_committed = 0.0;
        double trail_committed = 0.0;
        for (size_t s = 0; s < st.samples.size(); ++s) {
          (s < mid ? lead_committed : trail_committed) +=
              st.samples[s].committed;
        }
        lead_committed /= static_cast<double>(mid);
        trail_committed /= static_cast<double>(st.samples.size() - mid);
        const bool load_ramping =
            lead_committed > 0.0 &&
            trail_committed > kHeadroomMaxLoadRamp * lead_committed;
        if (monotone && !load_ramping &&
            recent_decline >= kHeadroomMinDecline) {
          slope = FitSlope(st.samples);
          if (slope < 0.0) {
            windows_to_zero = latest / -slope;
            firing = windows_to_zero <= kHeadroomHorizonWindows;
          }
        }
      }
      firing = firing || exhausted;

      const auto make_alert = [&] {
        Alert alert;
        alert.severity =
            latest < 0.0 ? AlertSeverity::kError : AlertSeverity::kWarn;
        alert.first_window = index;
        alert.start_s = w.start_s;
        alert.node = i < node_names.size() ? node_names[i] : FormatCount(i);
        if (exhausted) {
          alert.message = "epsilon headroom exhausted at node '" + alert.node +
                          "': min headroom fraction " + FormatNum(latest) +
                          " < " + FormatNum(kHeadroomExhaustedFrac);
        } else {
          alert.message = "epsilon headroom at node '" + alert.node +
                          "' trending to zero: fraction " + FormatNum(latest) +
                          ", ~" + FormatNum(windows_to_zero) +
                          " windows to empty";
        }
        alert.evidence.emplace_back("headroom_frac", latest);
        alert.evidence.emplace_back("slope_per_window", slope);
        alert.evidence.emplace_back("windows_to_zero", windows_to_zero);
        return alert;
      };
      st.episode.Update(firing, index, w, journal, make_alert);
    }
  }

  /// True while any node has an open episode.
  bool open() const {
    for (const NodeState& st : nodes) {
      if (st.episode.open()) return true;
    }
    return false;
  }

  std::vector<std::string> node_names;
  std::vector<NodeState> nodes;
};

struct CertificationStall {
  static constexpr const char* kName = "certification_stall";

  void OnWindow(size_t index, const SeriesWindow& w,
                std::vector<Alert>* journal) {
    if (w.certified_through_s < 0.0 || w.duration_s <= 0.0) return;
    const double lag_windows =
        (WindowEnd(w) - w.certified_through_s) / w.duration_s;
    const auto make_alert = [&] {
      Alert alert;
      alert.severity = AlertSeverity::kError;
      alert.first_window = index;
      alert.start_s = w.start_s;
      alert.message = "certification watermark stalled: certified through " +
                      FormatNum(w.certified_through_s) + " s, " +
                      FormatNum(lag_windows) +
                      " windows behind the window boundary";
      alert.evidence.emplace_back("lag_windows", lag_windows);
      alert.evidence.emplace_back("certified_through_s",
                                  w.certified_through_s);
      return alert;
    };
    episode.Update(lag_windows >= kCertificationMaxLagWindows, index, w,
                   journal, make_alert);
  }

  EpisodeTracker episode{kName};
};

struct ShardImbalance {
  static constexpr const char* kName = "shard_imbalance";

  void OnWindow(size_t index, const SeriesWindow& w, const HealthInput& input,
                std::vector<Alert>* journal) {
    bool qualifies = false;
    double ratio = 0.0;
    double mean = 0.0;
    int64_t max_ops = 0;
    int hot_shard = -1;
    if (input.shard_ops.size() >= 2) {
      int64_t total = 0;
      for (size_t i = 0; i < input.shard_ops.size(); ++i) {
        total += input.shard_ops[i];
        if (input.shard_ops[i] > max_ops) {
          max_ops = input.shard_ops[i];
          hot_shard = static_cast<int>(i);
        }
      }
      if (total >= kShardMinTotalOps) {
        mean = static_cast<double>(total) /
               static_cast<double>(input.shard_ops.size());
        ratio = static_cast<double>(max_ops) / mean;
        qualifies = ratio >= kShardMaxRatio;
      }
    }

    if (qualifies) {
      if (streak == 0) {
        streak_start = index;
        streak_start_s = w.start_s;
      }
      ++streak;
    } else {
      streak = 0;
    }
    const auto make_alert = [&] {
      Alert alert;
      alert.severity = AlertSeverity::kWarn;
      alert.first_window = streak_start;
      alert.start_s = streak_start_s;
      alert.shard = hot_shard;
      alert.message = "shard imbalance: shard " + FormatCount(hot_shard) +
                      " carries " + FormatNum(ratio) +
                      "x the mean per-shard op rate";
      alert.evidence.emplace_back("max_over_mean", ratio);
      alert.evidence.emplace_back("hot_shard_ops",
                                  static_cast<double>(max_ops));
      alert.evidence.emplace_back("mean_shard_ops", mean);
      return alert;
    };
    episode.Update(streak >= kShardMinWindows, index, w, journal, make_alert);
  }

  size_t streak = 0;
  size_t streak_start = 0;
  double streak_start_s = 0.0;
  EpisodeTracker episode{kName};
};

}  // namespace

// -- Alert / monitor --------------------------------------------------------

const char* AlertSeverityName(AlertSeverity severity) {
  switch (severity) {
    case AlertSeverity::kWarn:
      return "warn";
    case AlertSeverity::kError:
      return "error";
  }
  return "warn";
}

/// The detectors in the order they see each window, which fixes the
/// order of same-window alerts in the journal.
struct HealthMonitor::Detectors {
  AbortLivelock livelock;
  ThrashingBistability bistability;
  HeadroomExhaustion headroom;
  CertificationStall certification;
  ShardImbalance shard_imbalance;
};

HealthMonitor::HealthMonitor(std::string source, double window_s,
                             std::vector<std::string> node_names)
    : source_(std::move(source)),
      window_s_(window_s),
      detectors_(std::make_unique<Detectors>()) {
  detectors_->headroom.node_names = std::move(node_names);
}

HealthMonitor::~HealthMonitor() = default;

void HealthMonitor::OnWindow(const SeriesWindow& window,
                             const HealthInput& input) {
  const size_t index = windows_++;
  detectors_->livelock.OnWindow(index, window, &alerts_);
  detectors_->bistability.OnWindow(index, window, &alerts_);
  detectors_->headroom.OnWindow(index, window, &alerts_);
  detectors_->certification.OnWindow(index, window, &alerts_);
  detectors_->shard_imbalance.OnWindow(index, window, input, &alerts_);
}

HealthReport HealthMonitor::Report() const {
  HealthReport report;
  report.source = source_;
  report.window_s = window_s_;
  report.windows = windows_;
  report.alerts = alerts_;
  return report;
}

void HealthMonitor::ExportGauges(MetricRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->gauge("alert.count").Set(static_cast<double>(alerts_.size()));
  const std::pair<const char*, bool> active[] = {
      {AbortLivelock::kName, detectors_->livelock.episode.open()},
      {ThrashingBistability::kName, detectors_->bistability.episode.open()},
      {HeadroomExhaustion::kName, detectors_->headroom.open()},
      {CertificationStall::kName, detectors_->certification.episode.open()},
      {ShardImbalance::kName, detectors_->shard_imbalance.episode.open()},
  };
  for (const auto& [name, open] : active) {
    metrics->gauge(std::string("alert.active.") + name).Set(open ? 1.0 : 0.0);
  }
}

// -- Offline analysis -------------------------------------------------------

HealthReport AnalyzeSeries(const RunSeries& series) {
  HealthMonitor monitor(series.source, series.window_s, series.node_names);
  for (const SeriesWindow& w : series.windows) {
    monitor.OnWindow(w);
  }
  return monitor.Report();
}

// -- Journal ----------------------------------------------------------------

void WriteHealthJson(const HealthReport& report, std::ostream& out) {
  JsonWriter w(out);
  w.BeginObject();
  w.Key("health");
  w.BeginObject();
  w.KV("source", report.source);
  w.KV("window_s", report.window_s);
  w.KV("windows", static_cast<int64_t>(report.windows));
  w.KV("healthy", report.healthy());
  w.KV("alert_count", static_cast<int64_t>(report.alerts.size()));
  w.Key("alerts");
  w.BeginArray();
  for (const Alert& a : report.alerts) {
    w.BeginObject();
    w.KV("detector", a.detector);
    w.KV("severity", AlertSeverityName(a.severity));
    w.KV("first_window", static_cast<int64_t>(a.first_window));
    w.KV("last_window", static_cast<int64_t>(a.last_window));
    w.KV("start_s", a.start_s);
    w.KV("end_s", a.end_s);
    w.KV("node", a.node);
    w.KV("shard", static_cast<int64_t>(a.shard));
    w.KV("open", a.open);
    w.KV("message", a.message);
    w.Key("evidence");
    w.BeginObject();
    for (const auto& kv : a.evidence) {
      w.KV(kv.first, kv.second);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  out << "\n";
}

Status WriteHealthJsonToFile(const HealthReport& report,
                             const std::string& path) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open health journal for writing: " + path);
  }
  WriteHealthJson(report, out);
  out.flush();
  if (!out) {
    return Status::Internal("failed writing health journal: " + path);
  }
  return Status::OK();
}

Result<HealthReport> ReadHealthJson(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  JsonValue root;
  std::string error;
  if (!ParseJson(buf.str(), &root, &error)) {
    return Status::InvalidArgument("health journal parse error: " + error);
  }
  const JsonValue* health = root.Find("health");
  if (health == nullptr || !health->is_object()) {
    return Status::InvalidArgument(
        "health journal missing top-level \"health\" object");
  }
  HealthReport report;
  if (const JsonValue* v = health->Find("source")) report.source = v->string;
  report.window_s = health->NumberOr("window_s", 1.0);
  report.windows = static_cast<size_t>(health->NumberOr("windows", 0.0));
  const JsonValue* alerts = health->Find("alerts");
  if (alerts == nullptr || !alerts->is_array()) {
    return Status::InvalidArgument("health journal missing \"alerts\" array");
  }
  for (const JsonValue& entry : alerts->array) {
    if (!entry.is_object()) {
      return Status::InvalidArgument("health journal alert is not an object");
    }
    Alert a;
    if (const JsonValue* v = entry.Find("detector")) a.detector = v->string;
    if (const JsonValue* v = entry.Find("severity")) {
      a.severity = v->string == "error" ? AlertSeverity::kError
                                        : AlertSeverity::kWarn;
    }
    a.first_window = static_cast<size_t>(entry.NumberOr("first_window", 0.0));
    a.last_window = static_cast<size_t>(entry.NumberOr("last_window", 0.0));
    a.start_s = entry.NumberOr("start_s", 0.0);
    a.end_s = entry.NumberOr("end_s", 0.0);
    if (const JsonValue* v = entry.Find("node")) a.node = v->string;
    a.shard = static_cast<int>(entry.NumberOr("shard", -1.0));
    if (const JsonValue* v = entry.Find("open")) a.open = v->bool_value;
    if (const JsonValue* v = entry.Find("message")) a.message = v->string;
    if (const JsonValue* ev = entry.Find("evidence")) {
      for (const auto& kv : ev->object) {
        a.evidence.emplace_back(kv.first, kv.second.number);
      }
    }
    report.alerts.push_back(std::move(a));
  }
  return report;
}

Result<HealthReport> ReadHealthJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::Internal("cannot open health journal: " + path);
  }
  return ReadHealthJson(in);
}

void WriteHealthText(const HealthReport& report, std::ostream& out) {
  out << "health report";
  if (!report.source.empty()) out << " — " << report.source;
  out << "\n";
  out << "  windows analyzed: " << report.windows << " ("
      << FormatNum(report.window_s) << " s each)\n";
  if (report.healthy()) {
    out << "  status: HEALTHY — no alerts\n";
    return;
  }
  out << "  status: " << report.alerts.size() << " alert(s)\n";
  for (const Alert& a : report.alerts) {
    out << "  [" << AlertSeverityName(a.severity) << "] " << a.detector
        << ": windows " << a.first_window << ".." << a.last_window << " ("
        << FormatNum(a.start_s) << " s.." << FormatNum(a.end_s) << " s)";
    if (!a.node.empty()) out << " node=" << a.node;
    if (a.shard >= 0) out << " shard=" << a.shard;
    if (a.open) out << " [still open at run end]";
    out << "\n      " << a.message << "\n";
    for (const auto& kv : a.evidence) {
      out << "      " << kv.first << " = " << FormatNum(kv.second) << "\n";
    }
  }
}

// -- Demo series ------------------------------------------------------------

RunSeries BuildLivelockDemoSeries() {
  RunSeries series;
  series.source = "demo livelock (synthetic, after the MPL 2/low episode)";
  series.window_s = 1.0;
  series.node_names = {"root", "accounts"};
  const size_t total_windows = 40;
  for (size_t i = 0; i < total_windows; ++i) {
    SeriesWindow w;
    w.start_s = static_cast<double>(i);
    w.duration_s = 1.0;
    const bool livelocked = i >= 12 && i <= 25;
    if (livelocked) {
      // The recorded episode: zero commits while aborting 61-70 per 5 s
      // window — about 13 per 1 s window here.
      w.committed = 0;
      w.aborted = 13;
      w.restarts = 13;
      w.active_mpl = 2.0;
      w.mean_op_latency_ms = 9.0;
    } else {
      w.committed = 54 + static_cast<int64_t>(i % 3);
      w.aborted = 6;
      w.restarts = 6;
      w.active_mpl = 2.0;
      w.mean_op_latency_ms = 5.0;
    }
    SeriesNodeWindow root;
    root.max_accumulated = 1.2;
    root.min_headroom_frac = 0.7;
    root.limit_at_min = 4.0;
    root.charges = w.aborted + w.committed;
    SeriesNodeWindow accounts;
    accounts.max_accumulated = 0.8;
    accounts.min_headroom_frac = 0.6;
    accounts.limit_at_min = 2.0;
    accounts.charges = w.aborted + w.committed;
    w.nodes = {root, accounts};
    series.windows.push_back(std::move(w));
  }
  return series;
}

RunSeries BuildBistableDemoSeries() {
  RunSeries series;
  series.source = "demo bistability (synthetic, after the MPL >= 8 regimes)";
  series.window_s = 1.0;
  series.node_names = {"root"};
  const size_t total_windows = 40;
  for (size_t i = 0; i < total_windows; ++i) {
    SeriesWindow w;
    w.start_s = static_cast<double>(i);
    w.duration_s = 1.0;
    // The documented split: per-seed committed throughput clusters at
    // ~17 tps and ~7 tps. Alternate regimes in 4-window blocks.
    const bool high_regime = (i / 4) % 2 == 0;
    w.committed = high_regime ? 17 : 7;
    w.aborted = high_regime ? 20 : 35;
    w.restarts = w.aborted;
    w.active_mpl = 9.0;
    w.mean_op_latency_ms = high_regime ? 12.0 : 28.0;
    SeriesNodeWindow root;
    root.max_accumulated = 1.5;
    root.min_headroom_frac = 0.4;
    root.limit_at_min = 4.0;
    root.charges = w.aborted + w.committed;
    w.nodes = {root};
    series.windows.push_back(std::move(w));
  }
  return series;
}

}  // namespace esr
