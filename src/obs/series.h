#ifndef ESR_OBS_SERIES_H_
#define ESR_OBS_SERIES_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"

namespace esr {

/// Per-window reading of one hierarchy node's inconsistency telemetry
/// (see NodeHeadroomTracker): extrema over the window, not averages —
/// a bound violation hides in the worst moment, not the mean.
struct SeriesNodeWindow {
  /// Largest accumulated inconsistency any transaction reached at the
  /// node during the window.
  double max_accumulated = 0.0;
  /// Smallest (limit - accumulated) / limit observed; 1.0 when no bounded
  /// charge touched the node this window, negative marks a violation.
  double min_headroom_frac = 1.0;
  /// Limit in force when the minimum was recorded.
  double limit_at_min = 0.0;
  /// Bound charges that touched the node this window.
  int64_t charges = 0;
};

/// One fixed-length virtual-time window of run telemetry.
struct SeriesWindow {
  /// Window start in virtual seconds from run start.
  double start_s = 0.0;
  double duration_s = 0.0;
  int64_t committed = 0;
  int64_t aborted = 0;
  /// Transaction resubmissions after an abort. The synchronous simulated
  /// clients resubmit every aborted attempt, so here this equals
  /// `aborted`; kept separate because other drivers (threaded server,
  /// bounded-restart API paths) drop attempts.
  int64_t restarts = 0;
  /// Active transactions at the window-end sample instant.
  double active_mpl = 0.0;
  /// Mean operation round-trip latency over the window, milliseconds.
  double mean_op_latency_ms = 0.0;
  /// Streaming-certification watermark at this window's boundary, in
  /// virtual seconds (see obs/stream_audit.h): every hierarchical bound
  /// proven to hold through this time. -1 when certification was off for
  /// the run. Monotone across windows; it stops advancing (freezes) at
  /// the first violation's window.
  double certified_through_s = -1.0;
  /// Indexed like RunSeries::node_names; empty when headroom probes were
  /// off (no tracker, or an ESR_TRACE_DISABLED build).
  std::vector<SeriesNodeWindow> nodes;
};

/// A whole run's time series: the tentpole telemetry record produced by
/// sim::SeriesSampler and consumed by the exporters below, the bench
/// harness (`--series`), and `esr series`.
struct RunSeries {
  /// Free-form provenance, e.g. "fig07 mpl=10 til=2.0 seed=23757".
  std::string source;
  /// Nominal window length (virtual seconds).
  double window_s = 1.0;
  /// Hierarchy node names, index-aligned with SeriesWindow::nodes.
  std::vector<std::string> node_names;
  std::vector<SeriesWindow> windows;

  /// Committed-per-second series, one sample per window — the input to
  /// MSER-5 warmup truncation.
  std::vector<double> ThroughputSeries() const;
};

// -- Export / import --------------------------------------------------------

/// CSV, long format, one scalar row per window plus one row per
/// (window, bounded node):
///   # esr-series v1 window_s=<w> source=<escaped>
///   kind,window,start_s,duration_s,committed,aborted,restarts,active_mpl,
///       mean_op_latency_ms,node,max_accumulated,min_headroom_frac,
///       limit_at_min,charges,certified_through_s
/// The reader also accepts the pre-certification 14-field layout
/// (certified_through_s reads as -1 / off).
void WriteSeriesCsv(const RunSeries& series, std::ostream& out);

Status ExportSeriesCsvToFile(const RunSeries& series,
                             const std::string& path);

/// Parses WriteSeriesCsv output (`esr series` round-trip). Rejects
/// malformed headers/rows with InvalidArgument naming the line.
Result<RunSeries> ReadSeriesCsv(std::istream& in);
Result<RunSeries> ReadSeriesCsvFile(const std::string& path);

// -- Analysis (`esr series`, bench harness) ---------------------------------

/// Per-node digest over the whole run.
struct SeriesNodeSummary {
  std::string name;
  /// Peak accumulated inconsistency over all windows.
  double peak_accumulated = 0.0;
  /// Tightest headroom fraction over all windows (1.0 = never charged).
  double min_headroom_frac = 1.0;
  /// Window index where the minimum occurred.
  size_t min_window = 0;
  double limit_at_min = 0.0;
  /// Bound utilization at the node's tightest observation,
  /// 1 - min_headroom_frac (0 when the node was never charged). Defined
  /// from the minimum-headroom sample — not peak_accumulated / limit —
  /// because a node can be charged under several limits (the root sees
  /// both TIL and TEL checks) and mixing their extrema misleads.
  double utilization = 0.0;
  int64_t charges = 0;
};

/// Whole-run digest: steady-state window via MSER-5 over the throughput
/// series, tightest epsilon headroom, per-node utilization.
struct SeriesSummary {
  size_t total_windows = 0;
  /// MSER-5 outcome over the committed-per-second series.
  bool steady_state_found = false;
  size_t warmup_windows = 0;
  /// Means over the steady-state windows (over all windows when MSER
  /// failed — the caller is told via steady_state_found).
  double steady_throughput = 0.0;
  double steady_abort_rate = 0.0;
  double steady_mean_mpl = 0.0;
  double steady_mean_op_latency_ms = 0.0;
  /// True when any bounded node was charged in any window.
  bool headroom_observed = false;
  /// The run's tightest moment: node and window of the global minimum
  /// headroom fraction.
  std::string tightest_node;
  size_t tightest_window = 0;
  double tightest_headroom_frac = 1.0;
  double tightest_limit = 0.0;
  /// Any window saw accumulated > limit — a bound violation the engine
  /// should have prevented; `esr series` exits 2 on this.
  bool negative_headroom = false;
  /// Streaming certification rode along with the series (any window's
  /// certified_through_s >= 0).
  bool certification_observed = false;
  /// Final watermark (the last window's reading; the watermark is
  /// monotone, so also the run maximum).
  double certified_through_s = 0.0;
  /// The watermark stopped short of the last window boundary — a
  /// violation froze it mid-run.
  bool certification_froze = false;
  std::vector<SeriesNodeSummary> nodes;
};

SeriesSummary SummarizeSeries(const RunSeries& series);

/// Writes `summary` as JSON (the `esr series --json` output).
void WriteSeriesSummaryJson(const SeriesSummary& summary, std::ostream& out);

// -- Gauges -----------------------------------------------------------------

/// Publishes one `headroom.min_frac.<node>` gauge per charged node — the
/// minimum headroom fraction over all of `series`'s windows — plus
/// `headroom.min_frac` for the global minimum across nodes. The threaded
/// server calls this per sampling tick with its rolling series so
/// /metrics scrapes see live epsilon headroom.
void ExportHeadroomGauges(const RunSeries& series, MetricRegistry* metrics);

// -- Demo -------------------------------------------------------------------

/// Deterministic synthetic series — a ramp-up followed by steady state —
/// exercising every analysis path without running a simulation. With
/// `with_violation`, one steady window carries a negative headroom
/// fraction (`esr series --demo-negative`, and the exit-code test).
RunSeries BuildDemoSeries(bool with_violation);

}  // namespace esr

#endif  // ESR_OBS_SERIES_H_
