#include "obs/stream_audit.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/logging.h"
#include "common/random.h"
#include "common/saturating.h"

namespace esr {

StreamCertifier::StreamCertifier(StreamCertifierOptions options)
    : options_(std::move(options)),
      window_micros_(std::max<int64_t>(
          1, static_cast<int64_t>(options_.window_s * 1e6 + 0.5))),
      observed_through_(options_.epoch_micros),
      last_event_ts_(0),
      certified_from_(options_.epoch_micros),
      freeze_micros_(std::numeric_limits<int64_t>::max()) {}

void StreamCertifier::ObserveTrampoline(void* ctx, const TraceEvent& event) {
  static_cast<StreamCertifier*>(ctx)->Observe(event);
}

int64_t StreamCertifier::ClosedBoundary(int64_t ts) const {
  if (ts <= options_.epoch_micros) return options_.epoch_micros;
  const int64_t k = (ts - options_.epoch_micros) / window_micros_;
  return options_.epoch_micros + k * window_micros_;
}

double StreamCertifier::ToSeconds(int64_t ts) const {
  return static_cast<double>(ts - options_.epoch_micros) / 1e6;
}

void StreamCertifier::Observe(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  ++events_observed_;
  observed_through_ = std::max(observed_through_, event.ts_micros);
  last_event_ts_ = std::max(last_event_ts_, event.ts_micros);

  if (event.type == TraceEventType::kWait) {
    std::vector<TxnId>& writers = waits_[event.txn];
    if (writers.size() < 16) writers.push_back(event.parent);
  }
  if (event.type == TraceEventType::kCommit ||
      event.type == TraceEventType::kAbort) {
    // The violation interval of this transaction ends here.
    for (BoundViolation& v : *replayer_.mutable_violations()) {
      if (v.txn == event.txn) v.ts_end = event.ts_micros;
    }
    waits_.erase(event.txn);
  }

  const BoundWalkReplayer::Outcome outcome = replayer_.OnEvent(event);
  if (event.type == TraceEventType::kBoundCheck) {
    NodeState& node = nodes_[event.target];
    node.level = event.level;
    ++node.checks;
  }
  if (outcome.new_violation >= 0) {
    RecordViolation(event, static_cast<size_t>(outcome.new_violation));
  }
}

void StreamCertifier::RecordViolation(const TraceEvent& event, size_t index) {
  const BoundViolation& v = replayer_.violations()[index];
  // The watermark freezes at the left edge of the window the violation
  // landed in: that window (and everything after) is no longer certified.
  const int64_t freeze = ClosedBoundary(v.ts_begin);
  freeze_micros_ = std::min(freeze_micros_, freeze);
  NodeState& node = nodes_[v.group];
  node.level = v.level;
  node.violated = true;
  node.freeze_micros = std::min(node.freeze_micros, freeze);

  // Blame the conflict chain observed so far: the writers this
  // transaction had been made to wait on are the peers whose uncommitted
  // state it imported against.
  const auto wit = waits_.find(v.txn);
  std::vector<TxnId> blamed =
      wit != waits_.end() ? wit->second : std::vector<TxnId>{};
  while (blamed_writers_.size() < index) blamed_writers_.emplace_back();
  blamed_writers_.push_back(blamed);

  if (options_.log_violations) {
    std::ostringstream chain;
    for (size_t i = 0; i < blamed.size(); ++i) {
      chain << (i == 0 ? "" : ",") << blamed[i];
    }
    ESR_LOG(kError) << "[stream-certify"
                    << (options_.source.empty() ? "" : " ") << options_.source
                    << "] VIOLATION txn " << v.txn << " "
                    << ChargeDirectionToString(v.direction) << " group "
                    << v.group << " (level " << v.level << "): accumulated "
                    << v.accumulated << " > limit " << v.limit
                    << " in window [" << ToSeconds(freeze) << "s, "
                    << ToSeconds(freeze + window_micros_)
                    << "s); blamed writers: ["
                    << (blamed.empty() ? "none captured" : chain.str())
                    << "]";
  }
  if (options_.emit_trace_events && GlobalTraceCapturing()) {
    // Safe from inside the recorder's observer callback: the recorder
    // stores the marker but does not re-deliver it to us.
    GlobalTrace().Record(TraceEvent::Violation(
        v.txn, event.site, v.level, v.group, v.accumulated, v.limit,
        static_cast<int>(v.direction)));
  }
}

void StreamCertifier::AdvanceTo(int64_t ts_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  observed_through_ = std::max(observed_through_, ts_micros);
}

void StreamCertifier::NoteLostPrefix(uint64_t lost_events,
                                     int64_t first_retained_ts) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lost_events == 0) return;
  lost_prefix_events_ += lost_events;
  // The window containing the first retained event was only partially
  // observed; vouch from the next boundary on (or this one, if the first
  // event sits exactly on it).
  int64_t from = options_.epoch_micros;
  if (first_retained_ts > options_.epoch_micros) {
    // Round up to the next boundary; one near INT64_MAX saturates there.
    const int64_t boundary = ClosedBoundary(first_retained_ts);
    from = boundary == first_retained_ts
               ? boundary
               : SaturatingAdd(boundary, window_micros_);
  }
  certified_from_ = std::max(certified_from_, from);
}

double StreamCertifier::certified_through_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t certified = std::max(
      certified_from_,
      std::min(ClosedBoundary(observed_through_), freeze_micros_));
  return ToSeconds(certified);
}

double StreamCertifier::lag_windows() const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t certified = std::max(
      certified_from_,
      std::min(ClosedBoundary(observed_through_), freeze_micros_));
  const int64_t lag = std::max<int64_t>(0, observed_through_ - certified);
  return static_cast<double>(lag) / static_cast<double>(window_micros_);
}

size_t StreamCertifier::violation_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replayer_.violations().size();
}

bool StreamCertifier::certified() const { return violation_count() == 0; }

StreamCertification StreamCertifier::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StreamCertification snap;
  snap.enabled = true;
  snap.window_s = static_cast<double>(window_micros_) / 1e6;
  snap.events_observed = events_observed_;
  snap.walks_replayed = replayer_.walks_replayed();
  snap.charges_applied = replayer_.charges_applied();
  const int64_t closed = ClosedBoundary(observed_through_);
  snap.windows_closed = static_cast<size_t>(
      (closed - options_.epoch_micros) / window_micros_);
  const int64_t certified =
      std::max(certified_from_, std::min(closed, freeze_micros_));
  snap.observed_through_s = ToSeconds(observed_through_);
  snap.certified_through_s = ToSeconds(certified);
  snap.certified_from_s = ToSeconds(certified_from_);
  snap.lag_windows =
      static_cast<double>(std::max<int64_t>(0, observed_through_ - certified)) /
      static_cast<double>(window_micros_);
  snap.lost_prefix_events = lost_prefix_events_;

  snap.violations = replayer_.violations();
  for (BoundViolation& v : snap.violations) {
    // Transaction end not captured: close the interval at the last
    // observed event.
    if (v.ts_end == 0) v.ts_end = last_event_ts_;
  }
  snap.blamed_writers = blamed_writers_;
  snap.blamed_writers.resize(snap.violations.size());

  snap.nodes.reserve(nodes_.size());
  for (const auto& [group, state] : nodes_) {
    NodeCertification node;
    node.group = group;
    node.level = state.level;
    node.checks = state.checks;
    node.violated = state.violated;
    node.certified_through_s = ToSeconds(
        std::max(certified_from_, std::min(closed, state.freeze_micros)));
    snap.nodes.push_back(node);
  }
  return snap;
}

StreamCertification CertifySchedule(const std::vector<TraceEvent>& schedule,
                                    double window_s,
                                    uint64_t lost_prefix_events,
                                    int64_t through_micros) {
  StreamCertifierOptions options;
  options.window_s = window_s;
  options.log_violations = false;
  StreamCertifier certifier(options);
  if (!schedule.empty()) {
    certifier.NoteLostPrefix(lost_prefix_events, schedule.front().ts_micros);
  }
  for (const TraceEvent& e : schedule) certifier.Observe(e);
  certifier.AdvanceTo(through_micros);
  return certifier.Snapshot();
}

// -- Schedule perturbation ------------------------------------------------

std::vector<TraceEvent> PerturbSchedule(const std::vector<TraceEvent>& events,
                                        const PerturbOptions& options) {
  // Per-site lanes preserve each client's program order; map keeps lane
  // iteration (and hence the merge) deterministic in the site ids.
  std::map<SiteId, std::vector<size_t>> by_site;
  for (size_t i = 0; i < events.size(); ++i) {
    by_site[events[i].site].push_back(i);
  }
  std::vector<std::vector<size_t>> lanes;
  lanes.reserve(by_site.size());
  for (auto& [site, indices] : by_site) lanes.push_back(std::move(indices));
  std::vector<size_t> cursor(lanes.size(), 0);

  Rng rng(options.seed != 0 ? options.seed : 1);
  std::vector<TraceEvent> out;
  out.reserve(events.size());
  std::vector<size_t> eligible;
  int64_t prev_ts = std::numeric_limits<int64_t>::min();
  // Saturating adds: a capture may hold timestamps near INT64_MAX.
  for (size_t remaining = events.size(); remaining > 0; --remaining) {
    int64_t min_head = std::numeric_limits<int64_t>::max();
    for (size_t l = 0; l < lanes.size(); ++l) {
      if (cursor[l] < lanes[l].size()) {
        min_head =
            std::min(min_head, events[lanes[l][cursor[l]]].ts_micros);
      }
    }
    eligible.clear();
    for (size_t l = 0; l < lanes.size(); ++l) {
      if (cursor[l] < lanes[l].size() &&
          events[lanes[l][cursor[l]]].ts_micros <=
              SaturatingAdd(min_head, options.horizon_micros)) {
        eligible.push_back(l);
      }
    }
    const size_t lane = eligible[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(eligible.size()) - 1))];
    TraceEvent e = events[lanes[lane][cursor[lane]++]];
    int64_t ts = e.ts_micros;
    if (options.jitter_micros > 0) {
      ts = SaturatingAdd(ts, rng.UniformInt(0, options.jitter_micros));
    }
    ts = std::max(ts, prev_ts);
    prev_ts = ts;
    e.ts_micros = ts;
    out.push_back(e);
  }
  return out;
}

std::vector<TraceEvent> MinimizeViolatingSchedule(
    const std::vector<TraceEvent>& schedule, double window_s) {
  // Find the event at which the first violation fires.
  StreamCertifierOptions options;
  options.window_s = window_s;
  options.log_violations = false;
  StreamCertifier probe(options);
  size_t cut = schedule.size();
  for (size_t i = 0; i < schedule.size(); ++i) {
    probe.Observe(schedule[i]);
    if (probe.violation_count() > 0) {
      cut = i;
      break;
    }
  }
  if (cut == schedule.size()) return {};
  const BoundViolation v = probe.Snapshot().violations.front();

  // The replay is per (transaction, direction), so the violating
  // transaction's own bound checks in that direction — truncated at the
  // crossing walk — are a complete reproduction on their own.
  const int dir = static_cast<int>(v.direction);
  std::vector<TraceEvent> minimal;
  for (size_t i = 0; i <= cut; ++i) {
    const TraceEvent& e = schedule[i];
    if (e.txn != v.txn) continue;
    if (e.type == TraceEventType::kBegin ||
        (e.type == TraceEventType::kBoundCheck &&
         ((e.detail >> 1) & 1) == dir)) {
      minimal.push_back(e);
    }
  }
  if (CertifySchedule(minimal, window_s).certified()) {
    // Defensive fallback: never return a non-reproducing shrink.
    return std::vector<TraceEvent>(schedule.begin(),
                                   schedule.begin() + cut + 1);
  }
  return minimal;
}

PerturbReport HuntPerturbations(const std::vector<TraceEvent>& events,
                                size_t n, uint64_t base_seed,
                                double window_s) {
  PerturbReport report;
  report.schedules = n;
  for (size_t k = 0; k < n; ++k) {
    PerturbOptions options;
    options.seed = base_seed + k;
    const std::vector<TraceEvent> schedule =
        PerturbSchedule(events, options);
    const StreamCertification snap = CertifySchedule(schedule, window_s);
    PerturbVerdict verdict;
    verdict.seed = options.seed;
    verdict.violations = snap.violations.size();
    verdict.certified_through_s = snap.certified_through_s;
    report.verdicts.push_back(verdict);
    if (snap.violations.empty()) continue;
    ++report.violating;
    if (report.first_violations.empty()) {
      report.first_violating_seed = options.seed;
      report.first_violations = snap.violations;
      report.minimal_schedule = MinimizeViolatingSchedule(schedule, window_s);
    }
  }
  return report;
}

}  // namespace esr
