#include "obs/audit.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common/saturating.h"
#include "hierarchy/accumulator.h"
#include "obs/exporter.h"

namespace esr {

namespace {

/// Certification window of an audit, matching the live certifier's
/// default (and the series sampler's) so watermarks line up.
constexpr double kAuditWindowS = 1.0;

struct SpanInfo {
  SpanKind kind = SpanKind::kOp;
  TxnId txn = 0;
  uint64_t parent = 0;
  int64_t begin_ts = 0;
  int64_t end_ts = -1;

  bool complete() const { return end_ts >= begin_ts; }
  int64_t duration() const { return SaturatingSub(end_ts, begin_ts); }
};

struct TxnInfo {
  SiteId site = 0;
  int64_t begin_ts = -1;
  int64_t end_ts = -1;
  /// 0 end not captured, 1 committed, 2 aborted.
  int outcome = 0;
  /// Begin timestamps of this transaction's RPC spans, in trace order
  /// (monotonic), for locating the retry that follows a Wait verdict.
  std::vector<int64_t> rpc_begins;
};

}  // namespace

AuditReport AuditTrace(const std::vector<TraceEvent>& events,
                       const TraceMetadata& metadata) {
  AuditReport report;
  report.metadata = metadata;
  report.num_events = events.size();

  // ---- Pass 1: span index and transaction lifecycle ----------------------
  std::unordered_map<uint64_t, SpanInfo> spans;
  std::unordered_map<TxnId, TxnInfo> txns;

  auto touch_txn = [&txns](const TraceEvent& e) -> TxnInfo& {
    TxnInfo& t = txns[e.txn];
    if (t.site == 0) t.site = e.site;
    return t;
  };

  for (const TraceEvent& e : events) {
    switch (e.type) {
      case TraceEventType::kSpanBegin: {
        SpanInfo& s = spans[e.span];
        s.kind = static_cast<SpanKind>(e.detail);
        s.txn = e.txn;
        s.parent = e.parent;
        s.begin_ts = e.ts_micros;
        if (e.txn != 0) {
          TxnInfo& t = touch_txn(e);
          if (s.kind == SpanKind::kRpc) t.rpc_begins.push_back(e.ts_micros);
        }
        break;
      }
      case TraceEventType::kSpanEnd: {
        auto it = spans.find(e.span);
        if (it != spans.end()) it->second.end_ts = e.ts_micros;
        break;
      }
      case TraceEventType::kBegin:
        if (e.txn != 0) touch_txn(e).begin_ts = e.ts_micros;
        break;
      case TraceEventType::kCommit:
        if (e.txn != 0) {
          TxnInfo& t = touch_txn(e);
          t.end_ts = e.ts_micros;
          t.outcome = 1;
        }
        break;
      case TraceEventType::kAbort:
        if (e.txn != 0) {
          TxnInfo& t = touch_txn(e);
          t.end_ts = e.ts_micros;
          t.outcome = 2;
        }
        break;
      default:
        if (e.txn != 0) touch_txn(e);
        break;
    }
  }

  report.txns_seen = txns.size();
  for (const auto& [id, t] : txns) {
    (void)id;
    if (t.outcome == 1) ++report.txns_committed;
    if (t.outcome == 2) ++report.txns_aborted;
  }

  // ---- Pass 2: hierarchical bound certification --------------------------
  report.certification =
      CertifySchedule(events, kAuditWindowS, metadata.dropped);

  // ---- Pass 3: conflict chains -------------------------------------------
  std::unordered_map<TxnId, int64_t> conflict_wait_by_txn;
  for (const TraceEvent& e : events) {
    if (e.type != TraceEventType::kWait) continue;
    ConflictEdge edge;
    edge.waiter = e.txn;
    edge.writer = e.parent;
    edge.object = e.target;
    edge.ts_wait = e.ts_micros;
    const auto it = txns.find(e.txn);
    if (it != txns.end()) {
      // The wait ends when the client comes back: the first RPC attempt
      // issued after the verdict.
      const std::vector<int64_t>& rpcs = it->second.rpc_begins;
      const auto retry =
          std::upper_bound(rpcs.begin(), rpcs.end(), e.ts_micros);
      if (retry != rpcs.end()) {
        edge.wait_micros = SaturatingSub(*retry, e.ts_micros);
      }
    }
    int64_t& waited = conflict_wait_by_txn[edge.waiter];
    waited = SaturatingAdd(waited, edge.wait_micros);
    report.conflicts.push_back(edge);
  }

  std::unordered_map<TxnId, BlockerSummary> blockers;
  for (const ConflictEdge& edge : report.conflicts) {
    BlockerSummary& b = blockers[edge.writer];
    b.writer = edge.writer;
    ++b.waits_induced;
    b.total_wait_micros =
        SaturatingAdd(b.total_wait_micros, edge.wait_micros);
  }
  for (auto& [writer, b] : blockers) {
    const auto it = txns.find(writer);
    if (it != txns.end() && it->second.outcome == 1) b.outcome = 'c';
    if (it != txns.end() && it->second.outcome == 2) b.outcome = 'a';
    report.blockers.push_back(b);
  }
  std::sort(report.blockers.begin(), report.blockers.end(),
            [](const BlockerSummary& a, const BlockerSummary& b) {
              if (a.total_wait_micros != b.total_wait_micros) {
                return a.total_wait_micros > b.total_wait_micros;
              }
              return a.waits_induced > b.waits_induced;
            });

  // ---- Pass 4: critical-path decomposition -------------------------------
  struct PathAccum {
    int64_t rpc = 0;
    int64_t service = 0;
    int64_t service_in_rpc = 0;
    int64_t txn_span = -1;
  };
  std::unordered_map<TxnId, PathAccum> paths;
  for (const auto& [id, s] : spans) {
    (void)id;
    if (!s.complete() || s.txn == 0) continue;
    PathAccum& p = paths[s.txn];
    switch (s.kind) {
      case SpanKind::kTxn:
        p.txn_span = s.duration();
        break;
      case SpanKind::kRpc:
        p.rpc = SaturatingAdd(p.rpc, s.duration());
        break;
      case SpanKind::kOp:
      case SpanKind::kCommit: {
        p.service = SaturatingAdd(p.service, s.duration());
        const auto parent = spans.find(s.parent);
        if (parent != spans.end() &&
            parent->second.kind == SpanKind::kRpc) {
          p.service_in_rpc = SaturatingAdd(p.service_in_rpc, s.duration());
        }
        break;
      }
      case SpanKind::kBoundWalk:
        break;  // nested inside an op; already counted as service
    }
  }

  double sum_total = 0, sum_rpc = 0, sum_service = 0, sum_conflict = 0,
         sum_other = 0;
  for (const auto& [id, t] : txns) {
    if (t.outcome != 1) continue;
    TxnBreakdown b;
    b.txn = id;
    b.site = t.site;
    b.committed = true;
    const auto pit = paths.find(id);
    const PathAccum p = pit != paths.end() ? pit->second : PathAccum{};
    if (p.txn_span >= 0) {
      b.total_micros = p.txn_span;
    } else if (t.begin_ts >= 0 && t.end_ts >= t.begin_ts) {
      b.total_micros = SaturatingSub(t.end_ts, t.begin_ts);
    } else {
      continue;  // lifetime not captured; nothing to decompose
    }
    b.rpc_wait_micros = std::max<int64_t>(0, p.rpc - p.service_in_rpc);
    b.service_micros = p.service;
    const auto cit = conflict_wait_by_txn.find(id);
    b.conflict_wait_micros = cit != conflict_wait_by_txn.end() ? cit->second : 0;
    const int64_t accounted =
        SaturatingAdd(SaturatingAdd(b.rpc_wait_micros, b.service_micros),
                      b.conflict_wait_micros);
    b.other_micros =
        std::max<int64_t>(0, SaturatingSub(b.total_micros, accounted));
    sum_total += static_cast<double>(b.total_micros);
    sum_rpc += static_cast<double>(b.rpc_wait_micros);
    sum_service += static_cast<double>(b.service_micros);
    sum_conflict += static_cast<double>(b.conflict_wait_micros);
    sum_other += static_cast<double>(b.other_micros);
    report.breakdowns.push_back(b);
  }
  std::sort(report.breakdowns.begin(), report.breakdowns.end(),
            [](const TxnBreakdown& a, const TxnBreakdown& b) {
              if (a.total_micros != b.total_micros) {
                return a.total_micros > b.total_micros;
              }
              return a.txn < b.txn;
            });
  if (!report.breakdowns.empty()) {
    const double n = static_cast<double>(report.breakdowns.size());
    report.avg_total = sum_total / n;
    report.avg_rpc_wait = sum_rpc / n;
    report.avg_service = sum_service / n;
    report.avg_conflict_wait = sum_conflict / n;
    report.avg_other = sum_other / n;
  }

  return report;
}

void PrintAuditReport(const AuditReport& report, std::ostream& out,
                      size_t top_n) {
  out << "== esr_audit ==\n";
  out << "events: " << report.num_events
      << " (recorded " << report.metadata.recorded << ", dropped "
      << report.metadata.dropped << ", ring capacity "
      << report.metadata.capacity << ")\n";
  if (report.metadata.dropped > 0) {
    out << "warning: trace is truncated; accumulations replay from the "
           "retained suffix (certification stays sound, latency/conflict "
           "stats cover the suffix only)\n";
  }
  out << "transactions: " << report.txns_seen << " seen, "
      << report.txns_committed << " committed, " << report.txns_aborted
      << " aborted\n";
  const StreamCertification& cert = report.certification;
  out << "bound walks replayed: " << cert.walks_replayed << " ("
      << cert.charges_applied << " node charges)\n";

  if (report.certified()) {
    out << "bound certification: PASS — every admitted charge within its "
           "declared hierarchical bounds\n";
  } else {
    out << "bound certification: FAIL — " << cert.violations.size()
        << " node(s) exceeded their declared bound\n";
    for (const BoundViolation& v : cert.violations) {
      out << "  VIOLATION txn " << v.txn << " "
          << ChargeDirectionToString(v.direction) << " group " << v.group
          << " (level " << v.level << "): accumulated " << v.accumulated
          << " > limit " << v.limit << " during [" << v.ts_begin << ", "
          << v.ts_end << "] us\n";
    }
  }

  out << "conflicts: " << report.conflicts.size() << " wait(s)";
  if (report.blockers.empty()) {
    out << "\n";
  } else {
    out << "; top blockers:\n";
    size_t shown = 0;
    for (const BlockerSummary& b : report.blockers) {
      if (shown++ >= top_n) break;
      out << "  writer " << b.writer << " ["
          << (b.outcome == 'c' ? "committed"
                               : (b.outcome == 'a' ? "aborted" : "unknown"))
          << "]: " << b.waits_induced << " wait(s), "
          << b.total_wait_micros << " us induced\n";
    }
  }

  if (!report.breakdowns.empty()) {
    out << "commit critical path (avg over " << report.breakdowns.size()
        << " committed txns, us): total " << report.avg_total
        << " = rpc wait " << report.avg_rpc_wait << " + service "
        << report.avg_service << " + conflict wait "
        << report.avg_conflict_wait << " + other " << report.avg_other
        << "\n";
    out << "slowest commits:\n";
    size_t shown = 0;
    for (const TxnBreakdown& b : report.breakdowns) {
      if (shown++ >= top_n) break;
      out << "  txn " << b.txn << " (site " << b.site << "): total "
          << b.total_micros << " us = rpc " << b.rpc_wait_micros
          << " + service " << b.service_micros << " + conflict "
          << b.conflict_wait_micros << " + other " << b.other_micros
          << "\n";
    }
  }

  char watermark[160];
  std::snprintf(watermark, sizeof(watermark),
                "certification watermark: certified through %.1fs over %zu "
                "window(s), %zu violation(s)\n",
                cert.certified_through_s, cert.windows_closed,
                cert.violations.size());
  out << watermark;
}

void WriteAuditJson(const AuditReport& report, std::ostream& out,
                    size_t top_n) {
  const StreamCertification& cert = report.certification;
  JsonWriter w(out);
  w.BeginObject();
  w.KV("certified", report.certified());
  w.KV("events", static_cast<uint64_t>(report.num_events));
  w.Key("metadata");
  w.BeginObject();
  w.KV("recorded", report.metadata.recorded);
  w.KV("dropped", report.metadata.dropped);
  w.KV("capacity", report.metadata.capacity);
  w.EndObject();
  w.Key("transactions");
  w.BeginObject();
  w.KV("seen", static_cast<uint64_t>(report.txns_seen));
  w.KV("committed", static_cast<uint64_t>(report.txns_committed));
  w.KV("aborted", static_cast<uint64_t>(report.txns_aborted));
  w.EndObject();
  w.KV("walks_replayed", static_cast<uint64_t>(cert.walks_replayed));
  w.KV("charges_applied", static_cast<uint64_t>(cert.charges_applied));
  w.KV("certified_through_s", cert.certified_through_s);
  w.KV("certified_from_s", cert.certified_from_s);
  w.KV("observed_through_s", cert.observed_through_s);
  w.KV("windows_closed", static_cast<uint64_t>(cert.windows_closed));
  w.KV("lag_windows", cert.lag_windows);

  w.Key("violations");
  w.BeginArray();
  for (const BoundViolation& v : cert.violations) {
    w.BeginObject();
    w.KV("txn", v.txn);
    w.KV("direction", ChargeDirectionToString(v.direction));
    w.KV("group", v.group);
    w.KV("level", static_cast<int64_t>(v.level));
    w.KV("ts_begin", v.ts_begin);
    w.KV("ts_end", v.ts_end);
    w.KV("accumulated", v.accumulated);
    w.KV("limit", v.limit);
    w.EndObject();
  }
  w.EndArray();

  w.KV("conflict_waits", static_cast<uint64_t>(report.conflicts.size()));
  w.Key("top_blockers");
  w.BeginArray();
  size_t shown = 0;
  for (const BlockerSummary& b : report.blockers) {
    if (shown++ >= top_n) break;
    w.BeginObject();
    w.KV("writer", b.writer);
    w.KV("waits_induced", b.waits_induced);
    w.KV("total_wait_micros", b.total_wait_micros);
    w.KV("outcome", b.outcome == 'c' ? "committed"
                                     : (b.outcome == 'a' ? "aborted"
                                                         : "unknown"));
    w.EndObject();
  }
  w.EndArray();

  w.Key("critical_path_avg_micros");
  w.BeginObject();
  w.KV("total", report.avg_total);
  w.KV("rpc_wait", report.avg_rpc_wait);
  w.KV("service", report.avg_service);
  w.KV("conflict_wait", report.avg_conflict_wait);
  w.KV("other", report.avg_other);
  w.EndObject();

  w.Key("slowest_commits");
  w.BeginArray();
  shown = 0;
  for (const TxnBreakdown& b : report.breakdowns) {
    if (shown++ >= top_n) break;
    w.BeginObject();
    w.KV("txn", b.txn);
    w.KV("site", static_cast<uint64_t>(b.site));
    w.KV("total_micros", b.total_micros);
    w.KV("rpc_wait_micros", b.rpc_wait_micros);
    w.KV("service_micros", b.service_micros);
    w.KV("conflict_wait_micros", b.conflict_wait_micros);
    w.KV("other_micros", b.other_micros);
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  out << "\n";
}

}  // namespace esr
