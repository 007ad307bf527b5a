#include "sim/series_sampler.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "obs/stream_audit.h"

namespace esr {

SeriesSampler::SeriesSampler(EventQueue* queue, Server* server,
                             CumulativeFn cumulative,
                             SeriesSamplerOptions options)
    : queue_(queue),
      server_(server),
      cumulative_(std::move(cumulative)),
      options_(std::move(options)),
      tracker_(server->schema().num_groups()) {
  ESR_CHECK(options_.window_s > 0.0);
  ESR_CHECK(cumulative_ != nullptr);
  series_.source = options_.source;
  series_.window_s = options_.window_s;
  series_.node_names.reserve(server_->schema().num_groups());
  for (GroupId g = 0; g < server_->schema().num_groups(); ++g) {
    series_.node_names.push_back(server_->schema().name(g));
  }
  server_->engine().SetHeadroomTracker(&tracker_);
}

SeriesSampler::~SeriesSampler() {
  server_->engine().SetHeadroomTracker(nullptr);
}

void SeriesSampler::ScheduleWindows(double end_s) {
  end_s_ = end_s;
  num_windows_ = static_cast<size_t>(std::ceil(end_s / options_.window_s));
  series_.windows.reserve(num_windows_);
  if (num_windows_ > 0) ScheduleWindow(0);
}

void SeriesSampler::ScheduleWindow(size_t window_index) {
  const double boundary_s = std::min(
      static_cast<double>(window_index + 1) * options_.window_s, end_s_);
  const SimTime at = static_cast<SimTime>(boundary_s * kMicrosPerSecond);
  queue_->ScheduleAt(at, [this, window_index] { Sample(window_index); });
}

void SeriesSampler::Sample(size_t window_index) {
  ESR_CHECK(window_index == series_.windows.size())
      << "sampling events fired out of order";
  const Cumulative now = cumulative_();
  const double now_s = static_cast<double>(queue_->now()) / kMicrosPerSecond;

  SeriesWindow w;
  w.start_s = prev_time_s_;
  w.duration_s = now_s - prev_time_s_;
  w.committed = now.committed - prev_.committed;
  w.aborted = now.aborted - prev_.aborted;
  w.restarts = now.restarts - prev_.restarts;
  w.active_mpl = static_cast<double>(server_->engine().num_active());
  const int64_t ops = now.op_responses - prev_.op_responses;
  const int64_t op_us = now.op_latency_total_us - prev_.op_latency_total_us;
  w.mean_op_latency_ms =
      ops > 0
          ? static_cast<double>(op_us) / static_cast<double>(ops) / 1000.0
          : 0.0;

  w.nodes.resize(tracker_.num_nodes());
  for (GroupId g = 0; g < tracker_.num_nodes(); ++g) {
    const NodeHeadroomTracker::NodeSample s = tracker_.WindowSample(g);
    w.nodes[g].max_accumulated = s.max_accumulated;
    w.nodes[g].min_headroom_frac = s.min_headroom_frac;
    w.nodes[g].limit_at_min = s.limit_at_min;
    w.nodes[g].charges = s.charges;
  }
  tracker_.StartWindow();

  if (certifier_ != nullptr) {
    // The boundary itself is observed time: this closes window
    // `window_index` even when its tail carried no events, so a healthy
    // run reads certified_through == the boundary with zero lag.
    certifier_->AdvanceTo(static_cast<int64_t>(queue_->now()));
    w.certified_through_s = certifier_->certified_through_s();
  }

  series_.windows.push_back(std::move(w));
  prev_ = now;
  prev_time_s_ = now_s;
  if (window_index + 1 < num_windows_) ScheduleWindow(window_index + 1);
}

RunSeries SeriesSampler::TakeSeries() { return std::move(series_); }

}  // namespace esr
