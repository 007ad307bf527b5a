// Offline trace auditor: bound recertification on hand-crafted histories
// with known violations, conflict-chain reconstruction, a critical-path
// decomposition with known arithmetic, and a full round trip through the
// Chrome-trace exporter and reader.

#include "obs/audit.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/trace.h"
#include "obs/trace_reader.h"

namespace esr {
namespace {

// Builds event streams with explicit timestamps (AuditTrace never looks at
// wall time, only at what the events say).
class History {
 public:
  void At(int64_t ts, TraceEvent e) {
    e.ts_micros = ts;
    events_.push_back(e);
  }
  /// BoundCheck tagged with the export direction (detail bit 1), as the
  /// update-side accumulator records it.
  void ExportCheckAt(int64_t ts, TxnId txn, uint16_t level, uint64_t group,
                     double charged, double limit, bool admitted) {
    TraceEvent e = TraceEvent::BoundCheck(txn, /*site=*/1, level, group,
                                          charged, limit, admitted);
    e.detail |= 2;
    At(ts, e);
  }
  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  std::vector<TraceEvent> events_;
};

// A walk that climbs group `group` (level 1) and the transaction root.
void ImportWalk(History* h, int64_t ts, TxnId txn, uint64_t group,
                double charge, double group_limit, double til,
                bool admitted) {
  h->At(ts, TraceEvent::BoundCheck(txn, 1, /*level=*/1, group, charge,
                                   group_limit, admitted));
  if (admitted) {
    h->At(ts + 1, TraceEvent::BoundCheck(txn, 1, /*level=*/0, /*group=*/0,
                                         charge, til, /*admitted=*/true));
  }
}

TEST(AuditBoundsTest, CleanHistoryCertifies) {
  History h;
  h.At(100, TraceEvent::BeginTxn(1, TxnType::kQuery, 1));
  ImportWalk(&h, 110, 1, /*group=*/5, 30.0, /*group_limit=*/50.0,
             /*til=*/100.0, /*admitted=*/true);
  ImportWalk(&h, 120, 1, /*group=*/5, 20.0, 50.0, 100.0, true);
  h.At(200, TraceEvent::CommitTxn(1, 1));

  const AuditReport report = AuditTrace(h.events());
  EXPECT_TRUE(report.certified());
  EXPECT_EQ(report.txns_seen, 1u);
  EXPECT_EQ(report.txns_committed, 1u);
  EXPECT_EQ(report.certification.walks_replayed, 2u);
  EXPECT_EQ(report.certification.charges_applied, 4u);
}

TEST(AuditBoundsTest, AdmittedOverBoundChargeIsFlaggedWithInterval) {
  History h;
  h.At(1000, TraceEvent::BeginTxn(7, TxnType::kQuery, 1));
  ImportWalk(&h, 1010, 7, /*group=*/5, 30.0, 50.0, 100.0, true);
  // The buggy admit: group 5 lands at 70 > 50 while the root stays legal,
  // so only group-level replay can catch it.
  ImportWalk(&h, 1021, 7, /*group=*/5, 40.0, 50.0, 100.0, true);
  h.At(1100, TraceEvent::CommitTxn(7, 1));

  const AuditReport report = AuditTrace(h.events());
  EXPECT_FALSE(report.certified());
  ASSERT_EQ(report.certification.violations.size(), 1u);
  const BoundViolation& v = report.certification.violations[0];
  EXPECT_EQ(v.txn, 7u);
  EXPECT_EQ(v.direction, ChargeDirection::kImport);
  EXPECT_EQ(v.group, 5u);
  EXPECT_EQ(v.level, 1);
  EXPECT_DOUBLE_EQ(v.accumulated, 70.0);
  EXPECT_DOUBLE_EQ(v.limit, 50.0);
  // Over-bound from the offending admit until the transaction ended.
  EXPECT_EQ(v.ts_begin, 1021);
  EXPECT_EQ(v.ts_end, 1100);
}

TEST(AuditBoundsTest, NodeStayingOverBoundYieldsOneViolationWithPeak) {
  History h;
  ImportWalk(&h, 10, 3, 5, 60.0, 50.0, 1000.0, true);  // first crossing
  ImportWalk(&h, 20, 3, 5, 25.0, 50.0, 1000.0, true);  // still climbing
  const AuditReport report = AuditTrace(h.events());
  const std::vector<BoundViolation>& violations =
      report.certification.violations;
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].ts_begin, 10);
  EXPECT_DOUBLE_EQ(violations[0].accumulated, 85.0);
}

TEST(AuditBoundsTest, RejectedWalkChargesNothing) {
  History h;
  // Group 5 rejects the 60-unit charge; a later 40-unit walk is admitted.
  // Had the rejected walk leaked into the accumulator, 40 + 60 would
  // cross the limit and produce a false violation.
  ImportWalk(&h, 10, 2, /*group=*/5, 60.0, 50.0, 100.0, /*admitted=*/false);
  ImportWalk(&h, 20, 2, /*group=*/5, 40.0, 50.0, 100.0, /*admitted=*/true);

  const AuditReport report = AuditTrace(h.events());
  EXPECT_TRUE(report.certified());
  EXPECT_EQ(report.certification.walks_replayed, 2u);
  // Only the admitted walk charged.
  EXPECT_EQ(report.certification.charges_applied, 2u);
}

TEST(AuditBoundsTest, UnboundedNodesNeverViolate) {
  History h;
  ImportWalk(&h, 10, 1, 5, 1e9, kUnbounded, kUnbounded, true);
  EXPECT_TRUE(AuditTrace(h.events()).certified());
}

TEST(AuditBoundsTest, ImportAndExportAccumulatorsReplayIndependently) {
  History h;
  // The same transaction charges group 5 in both directions; each side
  // stays within its own limit, but their sum (75) would not.
  ImportWalk(&h, 10, 4, 5, 40.0, 50.0, 100.0, true);
  h.ExportCheckAt(20, 4, /*level=*/1, /*group=*/5, 35.0, /*limit=*/45.0,
                  /*admitted=*/true);
  h.ExportCheckAt(21, 4, /*level=*/0, /*group=*/0, 35.0, /*limit=*/100.0,
                  /*admitted=*/true);
  EXPECT_TRUE(AuditTrace(h.events()).certified());

  // Push the export side over its bound: the violation carries the
  // export direction, and the import side stays clean.
  h.ExportCheckAt(30, 4, 1, 5, 15.0, 45.0, true);
  h.ExportCheckAt(31, 4, 0, 0, 15.0, 100.0, true);
  const AuditReport report = AuditTrace(h.events());
  const std::vector<BoundViolation>& violations =
      report.certification.violations;
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].direction, ChargeDirection::kExport);
  EXPECT_DOUBLE_EQ(violations[0].accumulated, 50.0);
}

TEST(AuditConflictTest, WaitEventsBuildEdgesAndRankBlockers) {
  History h;
  h.At(50, TraceEvent::BeginTxn(2, TxnType::kUpdate, 1));   // the writer
  h.At(90, TraceEvent::BeginTxn(1, TxnType::kQuery, 1));    // the waiter
  // Waiter blocks on object 9 at t=100; its retry RPC goes out at t=150.
  TraceEvent wait = TraceEvent::WaitOn(1, 1, /*object=*/9, /*writer=*/2);
  h.At(100, wait);
  h.At(150, TraceEvent::SpanBeginEvent(SpanKind::kRpc, /*span=*/101,
                                       /*parent=*/0, /*txn=*/1, /*site=*/1,
                                       /*target=*/9));
  h.At(160, TraceEvent::SpanEndEvent(SpanKind::kRpc, 101, 1, 1));
  h.At(200, TraceEvent::CommitTxn(2, 1));

  const AuditReport report = AuditTrace(h.events());
  ASSERT_EQ(report.conflicts.size(), 1u);
  const ConflictEdge& edge = report.conflicts[0];
  EXPECT_EQ(edge.waiter, 1u);
  EXPECT_EQ(edge.writer, 2u);
  EXPECT_EQ(edge.object, 9u);
  EXPECT_EQ(edge.ts_wait, 100);
  EXPECT_EQ(edge.wait_micros, 50);  // verdict at 100, retry at 150

  ASSERT_EQ(report.blockers.size(), 1u);
  EXPECT_EQ(report.blockers[0].writer, 2u);
  EXPECT_EQ(report.blockers[0].waits_induced, 1u);
  EXPECT_EQ(report.blockers[0].total_wait_micros, 50);
  EXPECT_EQ(report.blockers[0].outcome, 'c');
}

TEST(AuditCriticalPathTest, DecomposesCommitLatencyExactly) {
  History h;
  // txn 1 lifetime [1000, 2000]; one rpc [1100, 1500] containing the
  // engine op [1300, 1400]; a wait verdict at 1600 answered by a retry
  // rpc at 1700 ([1700, 1750]); commit instant at 2000.
  h.At(1000, TraceEvent::SpanBeginEvent(SpanKind::kTxn, 1, 0, 1, 1, 0));
  h.At(1000, TraceEvent::BeginTxn(1, TxnType::kQuery, 1));
  h.At(1100, TraceEvent::SpanBeginEvent(SpanKind::kRpc, 2, 1, 1, 1, 9));
  h.At(1300, TraceEvent::SpanBeginEvent(SpanKind::kOp, 3, 2, 1, 1, 9));
  h.At(1400, TraceEvent::SpanEndEvent(SpanKind::kOp, 3, 1, 1));
  h.At(1500, TraceEvent::SpanEndEvent(SpanKind::kRpc, 2, 1, 1));
  h.At(1600, TraceEvent::WaitOn(1, 1, /*object=*/9, /*writer=*/4));
  h.At(1700, TraceEvent::SpanBeginEvent(SpanKind::kRpc, 5, 1, 1, 1, 9));
  h.At(1750, TraceEvent::SpanEndEvent(SpanKind::kRpc, 5, 1, 1));
  h.At(2000, TraceEvent::CommitTxn(1, 1));
  h.At(2000, TraceEvent::SpanEndEvent(SpanKind::kTxn, 1, 1, 1));

  const AuditReport report = AuditTrace(h.events());
  ASSERT_EQ(report.breakdowns.size(), 1u);
  const TxnBreakdown& b = report.breakdowns[0];
  EXPECT_EQ(b.txn, 1u);
  EXPECT_TRUE(b.committed);
  EXPECT_EQ(b.total_micros, 1000);  // from the txn span
  // rpc time 400 + 50 minus the 100 us of engine work inside it.
  EXPECT_EQ(b.rpc_wait_micros, 350);
  EXPECT_EQ(b.service_micros, 100);
  EXPECT_EQ(b.conflict_wait_micros, 100);  // wait 1600 -> retry rpc 1700
  // total - rpc_wait - service - conflict = client think/scheduling.
  EXPECT_EQ(b.other_micros, 450);
  EXPECT_DOUBLE_EQ(report.avg_total, 1000.0);
  EXPECT_DOUBLE_EQ(report.avg_service, 100.0);
}

TEST(AuditCriticalPathTest, FallsBackToInstantsWhenTxnSpanMissing) {
  History h;
  h.At(100, TraceEvent::BeginTxn(1, TxnType::kQuery, 1));
  h.At(400, TraceEvent::CommitTxn(1, 1));
  const AuditReport report = AuditTrace(h.events());
  ASSERT_EQ(report.breakdowns.size(), 1u);
  EXPECT_EQ(report.breakdowns[0].total_micros, 300);
  EXPECT_EQ(report.breakdowns[0].other_micros, 300);
}

#ifndef ESR_TRACE_DISABLED
TEST(AuditRoundTripTest, ExportedTraceAuditsIdenticallyAfterReload) {
  // Record a violating history through the real recorder, export it as
  // Chrome JSON, read it back, and confirm the verdict survives the trip.
  TraceRecorder& trace = GlobalTrace();
  trace.Reset();
  trace.set_enabled(true);
  int64_t clock = 0;
  auto step = [](void* ctx) { return ++*static_cast<int64_t*>(ctx); };
  trace.SetTimeSource(step, &clock);

  trace.Record(TraceEvent::BeginTxn(7, TxnType::kQuery, 1));
  trace.Record(TraceEvent::BoundCheck(7, 1, 1, 5, 30.0, 50.0, true));
  trace.Record(TraceEvent::BoundCheck(7, 1, 0, 0, 30.0, 100.0, true));
  trace.Record(TraceEvent::BoundCheck(7, 1, 1, 5, 40.0, 50.0, true));
  trace.Record(TraceEvent::BoundCheck(7, 1, 0, 0, 40.0, 100.0, true));
  trace.Record(TraceEvent::WaitOn(7, 1, 9, /*writer=*/3));
  trace.Record(TraceEvent::CommitTxn(7, 1));

  std::ostringstream out;
  trace.ExportChromeTrace(out);
  const AuditReport direct = AuditTrace(trace.Snapshot());
  trace.ClearTimeSource();
  trace.set_enabled(false);
  trace.Reset();

  std::vector<TraceEvent> reloaded;
  TraceMetadata metadata;
  ASSERT_TRUE(ReadChromeTrace(out.str(), &reloaded, &metadata).ok());
  EXPECT_EQ(metadata.recorded, 7u);
  EXPECT_EQ(metadata.dropped, 0u);

  const AuditReport replay = AuditTrace(reloaded, metadata);
  const std::vector<BoundViolation>& replayed =
      replay.certification.violations;
  const std::vector<BoundViolation>& recorded =
      direct.certification.violations;
  ASSERT_EQ(replayed.size(), recorded.size());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].group, recorded[0].group);
  EXPECT_DOUBLE_EQ(replayed[0].accumulated, recorded[0].accumulated);
  EXPECT_EQ(replayed[0].ts_begin, recorded[0].ts_begin);
  EXPECT_EQ(replay.conflicts.size(), 1u);
  EXPECT_EQ(replay.conflicts[0].writer, 3u);
}
#endif  // !ESR_TRACE_DISABLED

TEST(AuditReportTest, PrintNamesViolatedNodeAndInterval) {
  History h;
  ImportWalk(&h, 1021, 7, 5, 70.0, 50.0, 100.0, true);
  h.At(1100, TraceEvent::CommitTxn(7, 1));
  const AuditReport report = AuditTrace(h.events());

  std::ostringstream out;
  PrintAuditReport(report, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("FAIL"), std::string::npos) << text;
  EXPECT_NE(text.find("VIOLATION txn 7 import group 5 (level 1)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("during [1021, 1100] us"), std::string::npos) << text;
}

TEST(AuditReportTest, JsonReportCarriesVerdict) {
  History h;
  ImportWalk(&h, 10, 1, 5, 70.0, 50.0, 100.0, true);
  std::ostringstream out;
  WriteAuditJson(AuditTrace(h.events()), out);
  EXPECT_NE(out.str().find("\"certified\":false"), std::string::npos);
  EXPECT_NE(out.str().find("\"violations\":[{"), std::string::npos);
}

}  // namespace
}  // namespace esr
