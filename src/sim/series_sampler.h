#ifndef ESR_SIM_SERIES_SAMPLER_H_
#define ESR_SIM_SERIES_SAMPLER_H_

#include <functional>
#include <string>
#include <vector>

#include "hierarchy/accumulator.h"
#include "obs/series.h"
#include "sim/event_queue.h"
#include "txn/server.h"

namespace esr {

class StreamCertifier;

struct SeriesSamplerOptions {
  /// Virtual-time window length; the fixed ~1 s telemetry grain.
  double window_s = 1.0;
  /// Free-form provenance recorded in the exported series.
  std::string source;
};

/// Per-window telemetry collector for a simulated run: at every window
/// boundary of virtual time it reads the driver's cumulative workload
/// counters, turns the delta into one SeriesWindow (committed/aborted
/// txns, restarts, active MPL, mean op latency), reads the per-node
/// epsilon-headroom extrema out of its NodeHeadroomTracker, and resets
/// the tracker for the next window.
///
/// Decoupled from the driver through CumulativeFn: Cluster sums its MPL
/// SimClients (plus, in the replicated topology, the rejected replica
/// queries as restarts) into monotonically growing totals and the
/// sampler does the windowing.
///
/// Purely observational: sampling events only read state (and reset the
/// tracker's window extrema), so interleaving them into the event queue
/// never perturbs transaction scheduling — a sampled run's workload
/// results are byte-identical to an unsampled run's. Where a sampling
/// event ties with a workload event the queue's FIFO tie-break keeps the
/// order deterministic.
///
/// At most one sampling event is pending: ScheduleWindows queues window
/// 0's boundary and each Sample(i) queues boundary i+1, so the workload's
/// events never sift through a heap holding the whole run's boundaries.
/// Boundary i+1 is queued at boundary i, which orders it exactly as if it
/// had been queued before the run: a workload event could only jump
/// ahead of it by being scheduled for the same instant at least a window
/// in advance, and every workload delay (RPC legs, server CPU queueing,
/// restart and retry backoffs, think times) is far shorter than a window.
///
/// The windows vector is sized up front from the planned run length and
/// per-window node readings reuse the tracker's fixed slots — after
/// ScheduleWindows the sampling path performs no allocation beyond each
/// window's pre-sized node vector. Under ESR_TRACE_DISABLED the charge
/// probes are compiled out, so scalar window stats still fill but node
/// headroom stays at defaults (no charges).
class SeriesSampler {
 public:
  /// Cumulative (run-so-far) workload totals, sampled at each boundary.
  struct Cumulative {
    int64_t committed = 0;
    int64_t aborted = 0;
    /// Resubmissions after an abort; drivers that resubmit every abort
    /// report aborted here too.
    int64_t restarts = 0;
    /// Operation RPC round trips and their total latency (µs); zero when
    /// the driver does not track op latency (mean reports as 0).
    int64_t op_responses = 0;
    int64_t op_latency_total_us = 0;
  };
  using CumulativeFn = std::function<Cumulative()>;

  /// `queue` and `server` must outlive the sampler; the sampler attaches
  /// its tracker to the server's engine and detaches in its destructor.
  SeriesSampler(EventQueue* queue, Server* server, CumulativeFn cumulative,
                SeriesSamplerOptions options);
  ~SeriesSampler();

  SeriesSampler(const SeriesSampler&) = delete;
  SeriesSampler& operator=(const SeriesSampler&) = delete;

  /// Plans one sampling event per window boundary over [0, end_s]
  /// virtual seconds (ceil(end_s / window_s) windows), queues the first,
  /// and pre-sizes the series. Call once, before EventQueue::RunUntil.
  void ScheduleWindows(double end_s);

  /// The collected series (after the run). Windows the clock never
  /// reached stay absent: the series length reflects simulated time.
  RunSeries TakeSeries();

  /// Aligns a streaming certifier with the telemetry windows: at each
  /// boundary the sampler advances the certifier's watermark to virtual
  /// now and stamps its certified-through gauge into the window. Call
  /// before ScheduleWindows; nullptr detaches.
  void set_certifier(StreamCertifier* certifier) { certifier_ = certifier; }

 private:
  /// Queues the sampling event at window `window_index`'s right edge.
  void ScheduleWindow(size_t window_index);
  void Sample(size_t window_index);

  EventQueue* queue_;
  Server* server_;
  CumulativeFn cumulative_;
  SeriesSamplerOptions options_;
  StreamCertifier* certifier_ = nullptr;
  /// Planned run length and window count (set by ScheduleWindows).
  double end_s_ = 0.0;
  size_t num_windows_ = 0;
  NodeHeadroomTracker tracker_;
  Cumulative prev_;
  double prev_time_s_ = 0.0;
  RunSeries series_;
};

}  // namespace esr

#endif  // ESR_SIM_SERIES_SAMPLER_H_
