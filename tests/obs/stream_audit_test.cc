// Streaming consistency certification, the one bounds verdict behind a
// live run and `esr audit`: histories with known verdicts, watermark/lag
// semantics, lossy-capture degradation, recorder observer delivery,
// observe-only certification through the global recorder, a live run
// against CertifySchedule over its capture across seeds, and the
// schedule-perturbation violation hunt.

#include "obs/stream_audit.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/types.h"
#include "esr/limits.h"
#include "obs/audit.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "obs/trace_reader.h"
#include "sim/cluster.h"
#include "testing/trace_history.h"

namespace esr {
namespace {

using testing::DemoViolationHistory;
using testing::History;
using testing::ImportWalk;

// A clean two-site history: every admitted charge stays within bounds.
std::vector<TraceEvent> CleanTwoSiteHistory() {
  History h;
  h.At(100, TraceEvent::BeginTxn(1, TxnType::kQuery, 1));
  h.At(150, TraceEvent::BeginTxn(2, TxnType::kQuery, 2));
  ImportWalk(&h, 200, 1, 1, /*group=*/3, 10.0, 50.0, 100.0);
  ImportWalk(&h, 250, 2, 2, 3, 15.0, 50.0, 100.0);
  ImportWalk(&h, 300, 1, 1, 3, 20.0, 50.0, 100.0);
  ImportWalk(&h, 350, 2, 2, 4, 30.0, 50.0, 100.0);
  h.At(400, TraceEvent::CommitTxn(1, 1));
  h.At(450, TraceEvent::CommitTxn(2, 2));
  return h.events();
}

// The demo history's injected violation, as every path must report it:
// txn 7 imports group 5 (level 1) to 70 > 50 from the second walk at 1021
// until `ts_end`.
void ExpectDemoViolation(const StreamCertification& cert, int64_t ts_end) {
  EXPECT_TRUE(cert.enabled);
  EXPECT_FALSE(cert.certified());
  ASSERT_EQ(cert.violations.size(), 1u);
  const BoundViolation& v = cert.violations.front();
  EXPECT_EQ(v.txn, 7u);
  EXPECT_EQ(v.direction, ChargeDirection::kImport);
  EXPECT_EQ(v.group, 5u);
  EXPECT_EQ(v.level, 1u);
  EXPECT_EQ(v.ts_begin, 1021);
  EXPECT_EQ(v.ts_end, ts_end);
  EXPECT_DOUBLE_EQ(v.accumulated, 70.0);
  EXPECT_DOUBLE_EQ(v.limit, 50.0);
}

TEST(StreamCertifierTest, DemoHistoryOnlineMatchesOffline) {
  // Online: a certifier observing event by event. Offline: the audit of
  // the finished history. Both catch the injected violation, its interval
  // closed at the commit.
  const std::vector<TraceEvent> events = DemoViolationHistory();
  StreamCertifierOptions options;
  options.log_violations = false;
  StreamCertifier certifier(options);
  for (const TraceEvent& e : events) certifier.Observe(e);
  const StreamCertification online = certifier.Snapshot();
  ExpectDemoViolation(online, /*ts_end=*/1100);
  ASSERT_EQ(online.blamed_writers.size(), 1u);
  EXPECT_TRUE(online.blamed_writers.front().empty());  // no waits captured

  const AuditReport offline = AuditTrace(events);
  ExpectDemoViolation(offline.certification, /*ts_end=*/1100);
  EXPECT_FALSE(offline.certified());
  EXPECT_EQ(offline.certification.walks_replayed, online.walks_replayed);
  EXPECT_EQ(offline.certification.charges_applied, online.charges_applied);
}

TEST(StreamCertifierTest, WatermarkFreezesAtViolationWindow) {
  StreamCertifierOptions options;
  options.log_violations = false;
  StreamCertifier certifier(options);
  for (const TraceEvent& e : DemoViolationHistory()) certifier.Observe(e);

  // The violation landed in window [0s, 1s): the watermark freezes at its
  // left edge and never advances past it, however far time runs on.
  certifier.AdvanceTo(5'000'000);
  EXPECT_DOUBLE_EQ(certifier.certified_through_s(), 0.0);
  EXPECT_DOUBLE_EQ(certifier.lag_windows(), 5.0);
  EXPECT_FALSE(certifier.certified());
  EXPECT_EQ(certifier.violation_count(), 1u);

  const StreamCertification snap = certifier.Snapshot();
  EXPECT_EQ(snap.windows_closed, 5u);
  EXPECT_DOUBLE_EQ(snap.certified_through_s, 0.0);
  // The violated node is frozen; the (honest) root node is not.
  bool saw_group = false, saw_root = false;
  for (const NodeCertification& node : snap.nodes) {
    if (node.group == 5) {
      saw_group = true;
      EXPECT_TRUE(node.violated);
      EXPECT_DOUBLE_EQ(node.certified_through_s, 0.0);
    }
    if (node.group == 0) {
      saw_root = true;
      EXPECT_FALSE(node.violated);
      EXPECT_DOUBLE_EQ(node.certified_through_s, 5.0);
    }
  }
  EXPECT_TRUE(saw_group);
  EXPECT_TRUE(saw_root);
}

TEST(StreamCertifierTest, WatermarkTracksClosedWindowsOnCleanStream) {
  StreamCertifierOptions options;
  options.log_violations = false;
  StreamCertifier certifier(options);
  // Mid-window: nothing closed yet.
  certifier.AdvanceTo(400'000);
  EXPECT_DOUBLE_EQ(certifier.certified_through_s(), 0.0);
  EXPECT_NEAR(certifier.lag_windows(), 0.4, 1e-9);
  // Heartbeats close windows even without events.
  certifier.AdvanceTo(2'500'000);
  EXPECT_DOUBLE_EQ(certifier.certified_through_s(), 2.0);
  EXPECT_NEAR(certifier.lag_windows(), 0.5, 1e-9);
  // Time never runs backwards.
  certifier.AdvanceTo(1'000'000);
  EXPECT_DOUBLE_EQ(certifier.certified_through_s(), 2.0);
}

TEST(StreamCertifierTest, LostPrefixCeilsCertifiedFrom) {
  StreamCertifierOptions options;
  options.log_violations = false;
  StreamCertifier certifier(options);
  certifier.NoteLostPrefix(/*lost_events=*/137,
                           /*first_retained_ts=*/1'500'000);
  certifier.AdvanceTo(4'000'000);
  const StreamCertification snap = certifier.Snapshot();
  // Window [1s, 2s) was only partially observed: vouch from 2s on.
  EXPECT_DOUBLE_EQ(snap.certified_from_s, 2.0);
  EXPECT_DOUBLE_EQ(snap.certified_through_s, 4.0);
  EXPECT_EQ(snap.lost_prefix_events, 137u);
}

TEST(StreamCertifierTest, ViolationLogNamesNodeWindowAndBlame) {
  CapturingLogSink sink;
  LogSink* previous = SetLogSink(&sink);

  History h;
  h.At(1000, TraceEvent::BeginTxn(9, TxnType::kQuery, 1));
  // The writer it waited on becomes the blamed conflict chain.
  h.At(1005, TraceEvent::WaitOn(9, 1, /*object=*/42, /*writer=*/4));
  ImportWalk(&h, 1011, 9, 1, /*group=*/6, 40.0, 50.0, 100.0);
  ImportWalk(&h, 1021, 9, 1, 6, 30.0, 50.0, 100.0);
  h.At(1100, TraceEvent::CommitTxn(9, 1));

  StreamCertifierOptions options;
  options.source = "unit-test";
  StreamCertifier certifier(options);
  for (const TraceEvent& e : h.events()) certifier.Observe(e);
  SetLogSink(previous);

  ASSERT_EQ(certifier.violation_count(), 1u);
  const StreamCertification snap = certifier.Snapshot();
  ASSERT_EQ(snap.blamed_writers.size(), 1u);
  ASSERT_EQ(snap.blamed_writers.front().size(), 1u);
  EXPECT_EQ(snap.blamed_writers.front().front(), 4u);

  bool found = false;
  for (const CapturingLogSink::Captured& record : sink.records()) {
    if (record.message.find("VIOLATION txn 9") == std::string::npos) continue;
    found = true;
    EXPECT_EQ(record.level, LogLevel::kError);
    EXPECT_NE(record.message.find("unit-test"), std::string::npos);
    EXPECT_NE(record.message.find("group 6"), std::string::npos);
    EXPECT_NE(record.message.find("window [0s, 1s)"), std::string::npos);
    EXPECT_NE(record.message.find("blamed writers: [4]"), std::string::npos);
  }
  EXPECT_TRUE(found);
}

TEST(TraceObserverTest, RecorderDeliversEveryRecordUntilCleared) {
  TraceRecorder recorder(/*capacity=*/16);
  size_t seen = 0;
  recorder.SetObserver(
      [](void* ctx, const TraceEvent&) { ++*static_cast<size_t*>(ctx); },
      &seen, kAllTraceKinds);
  recorder.Record(TraceEvent::BeginTxn(1, TxnType::kQuery, 1));
  recorder.Record(TraceEvent::CommitTxn(1, 1));
  EXPECT_EQ(seen, 2u);
  recorder.ClearObserver();
  recorder.Record(TraceEvent::BeginTxn(2, TxnType::kQuery, 1));
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(recorder.size(), 3u);  // the ring stored all three regardless
}

TEST(TraceObserverTest, MaskedObserverSeesOnlyItsKindsWhileCaptureStoresAll) {
  TraceRecorder recorder(/*capacity=*/16);
  recorder.set_enabled(true);
  std::vector<TraceEventType> seen;
  recorder.SetObserver(
      [](void* ctx, const TraceEvent& e) {
        static_cast<std::vector<TraceEventType>*>(ctx)->push_back(e.type);
      },
      &seen, StreamCertifier::kObservedKinds);
  recorder.Record(TraceEvent::BeginTxn(1, TxnType::kQuery, 1));
  recorder.Record(TraceEvent::SpanBeginEvent(SpanKind::kOp, 5, 0, 1, 1, 42));
  recorder.Record(TraceEvent::Op(TraceEventType::kRead, 1, 1, 42));
  recorder.Record(TraceEvent::WaitOn(1, 1, 43, /*writer=*/4));
  recorder.Record(TraceEvent::BoundCheck(1, 1, 0, 0, 5.0, 100.0, true));
  recorder.Record(TraceEvent::SpanEndEvent(SpanKind::kOp, 5, 1, 1));
  recorder.Record(TraceEvent::CommitTxn(1, 1));
  recorder.Record(TraceEvent::AbortTxn(2, 1, /*reason=*/1));
  recorder.ClearObserver();

  const std::vector<TraceEventType> expected = {
      TraceEventType::kWait, TraceEventType::kBoundCheck,
      TraceEventType::kCommit, TraceEventType::kAbort};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(recorder.size(), 8u);  // capture keeps every kind
}

// -- Lossy captures --------------------------------------------------------

TEST(LossyCaptureTest, OverflowedRingWarnsAndCertifiesRetainedSuffix) {
  // A small recorder overwhelmed with clean history: the ring wraps, the
  // reader warns, and certification vouches only from the first fully
  // observed window on.
  TraceRecorder recorder(/*capacity=*/64);
  int64_t fake_now = 0;
  recorder.SetTimeSource(
      [](void* ctx) { return *static_cast<int64_t*>(ctx); }, &fake_now);
  for (TxnId txn = 1; txn <= 50; ++txn) {
    const int64_t base = static_cast<int64_t>(txn) * 50'000;
    fake_now = base;
    recorder.Record(TraceEvent::BeginTxn(txn, TxnType::kQuery, 1));
    fake_now = base + 10;
    recorder.Record(TraceEvent::BoundCheck(txn, 1, 1, /*group=*/3, 5.0,
                                           50.0, true));
    fake_now = base + 11;
    recorder.Record(TraceEvent::BoundCheck(txn, 1, 0, 0, 5.0, 100.0, true));
    fake_now = base + 100;
    recorder.Record(TraceEvent::CommitTxn(txn, 1));
  }
  ASSERT_GT(recorder.dropped(), 0u);

  std::ostringstream out;
  recorder.ExportChromeTrace(out);

  CapturingLogSink sink;
  LogSink* previous = SetLogSink(&sink);
  std::vector<TraceEvent> events;
  TraceMetadata metadata;
  const Status status = ReadChromeTrace(out.str(), &events, &metadata);
  SetLogSink(previous);

  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(metadata.dropped, recorder.dropped());
  EXPECT_FALSE(metadata.truncated);
  EXPECT_EQ(events.size(), recorder.size());
  bool warned = false;
  for (const CapturingLogSink::Captured& record : sink.records()) {
    if (record.level == LogLevel::kWarning &&
        record.message.find("ring wraparound") != std::string::npos) {
      warned = true;
    }
  }
  EXPECT_TRUE(warned);

  const StreamCertification snap =
      CertifySchedule(events, /*window_s=*/1.0, metadata.dropped);
  EXPECT_TRUE(snap.certified());
  EXPECT_GT(snap.certified_from_s, 0.0);
  EXPECT_GE(snap.certified_through_s, snap.certified_from_s);
  EXPECT_EQ(snap.lost_prefix_events, metadata.dropped);
}

TEST(LossyCaptureTest, TruncatedFileSalvagesContiguousPrefix) {
  const std::vector<TraceEvent> full = CleanTwoSiteHistory();
  std::ostringstream out;
  WriteChromeTraceEvents(full, out, full.size(), /*dropped=*/0,
                         /*capacity=*/1024);
  const std::string json = out.str();

  // Cut the file mid-write, as a dying process would.
  const std::string cut = json.substr(0, (json.size() * 7) / 10);

  CapturingLogSink sink;
  LogSink* previous = SetLogSink(&sink);
  std::vector<TraceEvent> events;
  TraceMetadata metadata;
  const Status status = ReadChromeTrace(cut, &events, &metadata);
  SetLogSink(previous);

  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(metadata.truncated);
  ASSERT_GT(events.size(), 0u);
  ASSERT_LT(events.size(), full.size());
  // What was salvaged is exactly a prefix of the original stream.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].type, full[i].type) << i;
    EXPECT_EQ(events[i].txn, full[i].txn) << i;
    EXPECT_EQ(events[i].ts_micros, full[i].ts_micros) << i;
  }
  bool warned = false;
  for (const CapturingLogSink::Captured& record : sink.records()) {
    if (record.level == LogLevel::kWarning &&
        record.message.find("truncated") != std::string::npos) {
      warned = true;
    }
  }
  EXPECT_TRUE(warned);
  // The salvaged prefix still certifies (all charges were in bounds).
  EXPECT_TRUE(CertifySchedule(events, /*window_s=*/1.0).certified());
}

// -- Schedule perturbation -------------------------------------------------

std::vector<std::vector<std::pair<TxnId, TraceEventType>>> PerSiteOrder(
    const std::vector<TraceEvent>& events) {
  std::map<SiteId, std::vector<std::pair<TxnId, TraceEventType>>> by_site;
  for (const TraceEvent& e : events) {
    by_site[e.site].emplace_back(e.txn, e.type);
  }
  std::vector<std::vector<std::pair<TxnId, TraceEventType>>> out;
  for (auto& [site, order] : by_site) out.push_back(std::move(order));
  return out;
}

TEST(PerturbScheduleTest, PreservesPerSiteProgramOrder) {
  const std::vector<TraceEvent> base = CleanTwoSiteHistory();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    PerturbOptions options;
    options.seed = seed;
    const std::vector<TraceEvent> perturbed = PerturbSchedule(base, options);
    ASSERT_EQ(perturbed.size(), base.size()) << "seed " << seed;
    EXPECT_EQ(PerSiteOrder(perturbed), PerSiteOrder(base)) << "seed " << seed;
    int64_t prev = perturbed.front().ts_micros;
    for (const TraceEvent& e : perturbed) {
      EXPECT_GE(e.ts_micros, prev) << "seed " << seed;
      prev = e.ts_micros;
    }
  }
}

TEST(PerturbScheduleTest, SeedsActuallyReorderAcrossSites) {
  const std::vector<TraceEvent> base = CleanTwoSiteHistory();
  bool any_differs = false;
  for (uint64_t seed = 1; seed <= 8 && !any_differs; ++seed) {
    PerturbOptions options;
    options.seed = seed;
    const std::vector<TraceEvent> perturbed = PerturbSchedule(base, options);
    for (size_t i = 0; i < base.size(); ++i) {
      if (perturbed[i].txn != base[i].txn ||
          perturbed[i].type != base[i].type) {
        any_differs = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_differs)
      << "8 seeds never moved an event across sites — no hunt coverage";
}

TEST(PerturbHuntTest, CertifiedScheduleHasNoFalsePositives) {
  const PerturbReport report =
      HuntPerturbations(CleanTwoSiteHistory(), /*n=*/16, /*base_seed=*/1,
                        /*window_s=*/1.0);
  EXPECT_EQ(report.schedules, 16u);
  EXPECT_EQ(report.violating, 0u);
  EXPECT_TRUE(report.minimal_schedule.empty());
  for (const PerturbVerdict& verdict : report.verdicts) {
    EXPECT_EQ(verdict.violations, 0u) << "seed " << verdict.seed;
  }
}

TEST(PerturbHuntTest, DemoViolationCaughtUnderEveryPerturbation) {
  const PerturbReport report =
      HuntPerturbations(DemoViolationHistory(), /*n=*/8, /*base_seed=*/1,
                        /*window_s=*/1.0);
  EXPECT_EQ(report.schedules, 8u);
  EXPECT_EQ(report.violating, 8u);
  EXPECT_EQ(report.first_violating_seed, 1u);
  ASSERT_FALSE(report.first_violations.empty());
  EXPECT_EQ(report.first_violations.front().group, 5u);

  // The minimized reproduction is smaller than the schedule and still
  // violates when streamed on its own.
  ASSERT_FALSE(report.minimal_schedule.empty());
  EXPECT_LT(report.minimal_schedule.size(), DemoViolationHistory().size());
  EXPECT_FALSE(CertifySchedule(report.minimal_schedule, 1.0).certified());
}

TEST(MinimizeScheduleTest, CertifiedScheduleMinimizesToNothing) {
  EXPECT_TRUE(
      MinimizeViolatingSchedule(CleanTwoSiteHistory(), 1.0).empty());
}

TEST(MinimizeScheduleTest, DemoMinimizesToBoundRelevantPrefix) {
  const std::vector<TraceEvent> minimal =
      MinimizeViolatingSchedule(DemoViolationHistory(), 1.0);
  ASSERT_FALSE(minimal.empty());
  // Begin plus the import-direction bound checks up to the crossing walk:
  // no ops, no commit, no root check after the crossing.
  for (const TraceEvent& e : minimal) {
    EXPECT_TRUE(e.type == TraceEventType::kBegin ||
                e.type == TraceEventType::kBoundCheck)
        << TraceEventTypeToString(e.type);
    EXPECT_EQ(e.txn, 7u);
  }
  EXPECT_FALSE(CertifySchedule(minimal, 1.0).certified());
}

// -- Whole-cluster equivalence (needs tracing compiled in) -----------------

#ifndef ESR_TRACE_DISABLED

// -- Observe-only certification through the global recorder --------------

/// Time source returning the scripted timestamp of the event being fed.
int64_t ScriptedNow(void* ctx) { return *static_cast<int64_t*>(ctx); }

/// Feeds `history` through the global probe path in observe-only mode —
/// each event wrapped in the op span, Read/Write and span-end events a
/// live engine would record around it, plus trailing noise after the
/// last one — into a subscribed certifier, then heartbeats to 5 s.
StreamCertification ObserveOnlyThroughGlobalTrace(
    const std::vector<TraceEvent>& history) {
  GlobalTrace().set_enabled(false);
  GlobalTrace().Reset();
  StreamCertifierOptions options;
  options.log_violations = false;
  options.emit_trace_events = true;
  StreamCertifier certifier(options);
  int64_t now = 0;
  {
    ScopedTraceTimeSource clock(&ScriptedNow, &now);
    ScopedTraceObserver observer(&StreamCertifier::ObserveTrampoline,
                                 &certifier,
                                 StreamCertifier::kObservedKinds);
    EXPECT_NE(GlobalTraceGate(), 0u);
    EXPECT_FALSE(GlobalTraceCapturing());
    // The gate wants exactly the subscribed kinds, so the Read/Write
    // and span noise below never reaches Record.
    EXPECT_TRUE(GlobalTraceWants(TraceEventType::kBoundCheck));
    EXPECT_TRUE(GlobalTraceWants(TraceEventType::kCommit));
    EXPECT_FALSE(GlobalTraceWants(TraceEventType::kRead));
    EXPECT_FALSE(GlobalTraceWants(TraceEventType::kSpanBegin));
    for (const TraceEvent& e : history) {
      now = e.ts_micros;
      // Spans do not open without capture.
      Probe op(SpanKind::kOp, e.txn, e.site, /*target=*/42);
      EXPECT_EQ(op.span(), 0u);
      EXPECT_EQ(BeginSpan(SpanKind::kRpc, e.txn, e.site), 0u);
      ESR_TRACE_EVENT(
          TraceEvent::SpanBeginEvent(SpanKind::kOp, 9, 0, e.txn, e.site, 42));
      ESR_TRACE_EVENT(TraceEvent::Op(TraceEventType::kRead, e.txn, e.site, 42));
      ESR_TRACE_EVENT(e);
      ESR_TRACE_EVENT(
          TraceEvent::Op(TraceEventType::kWrite, e.txn, e.site, 43));
      ESR_TRACE_EVENT(TraceEvent::SpanEndEvent(SpanKind::kOp, 9, e.txn, e.site));
    }
    now += 5'000;
    ESR_TRACE_EVENT(TraceEvent::Op(TraceEventType::kRead, 8, 2, 44));
    ESR_TRACE_EVENT(TraceEvent::SpanEndEvent(SpanKind::kTxn, 10, 8, 2));
  }
  EXPECT_EQ(GlobalTraceGate(), 0u);
  // Neither the noise nor the certifier's violation marker was stored.
  EXPECT_EQ(GlobalTrace().recorded(), 0u);
  certifier.AdvanceTo(5'000'000);
  return certifier.Snapshot();
}

TEST(ObserveOnlyCertifyTest, CatchesDemoViolationThroughTheGlobalRecorder) {
  // The demo history as is (the violating transaction commits), and with
  // a wait on writer 4 added and the commit cut, so the transaction never
  // ends and its violation interval closes at the last observed event.
  std::vector<TraceEvent> unended = DemoViolationHistory();
  unended.pop_back();
  TraceEvent wait = TraceEvent::WaitOn(7, 1, /*object=*/42, /*writer=*/4);
  wait.ts_micros = 1005;
  unended.insert(unended.begin() + 1, wait);

  const std::vector<std::pair<std::vector<TraceEvent>, int64_t>> cases = {
      {DemoViolationHistory(), /*ts_end=*/1100}, {unended, /*ts_end=*/1022}};
  for (const auto& [history, ts_end] : cases) {
    StreamCertifierOptions options;
    options.log_violations = false;
    StreamCertifier direct_certifier(options);
    for (const TraceEvent& e : history) direct_certifier.Observe(e);
    direct_certifier.AdvanceTo(5'000'000);
    const StreamCertification direct = direct_certifier.Snapshot();
    const StreamCertification live = ObserveOnlyThroughGlobalTrace(history);

    // Both catch the injected violation (node, interval, accumulation,
    // limit); the unended one closes at the last bound check.
    ExpectDemoViolation(direct, ts_end);
    ExpectDemoViolation(live, ts_end);
    EXPECT_DOUBLE_EQ(live.certified_through_s, 0.0);
    EXPECT_EQ(live.certified_through_s, direct.certified_through_s);
    EXPECT_EQ(live.blamed_writers, direct.blamed_writers);
    ASSERT_EQ(live.nodes.size(), direct.nodes.size());
    for (size_t i = 0; i < live.nodes.size(); ++i) {
      EXPECT_EQ(live.nodes[i].violated, direct.nodes[i].violated);
      EXPECT_EQ(live.nodes[i].certified_through_s,
                direct.nodes[i].certified_through_s);
    }
  }
  // The unended run blamed the writer it waited on; the audit of the
  // history closes the interval at the last bound check too.
  const StreamCertification live = ObserveOnlyThroughGlobalTrace(unended);
  ASSERT_EQ(live.blamed_writers.size(), 1u);
  EXPECT_EQ(live.blamed_writers.front(), std::vector<TxnId>{4});
  ExpectDemoViolation(AuditTrace(unended).certification, /*ts_end=*/1022);
}

ClusterOptions CertifyOptions(uint64_t seed) {
  ClusterOptions opt;
  opt.mpl = 3;
  const TransactionLimits limits = LimitsForLevel(EpsilonLevel::kMedium);
  opt.workload.til = limits.til;
  opt.workload.tel = limits.tel;
  opt.warmup_s = 0.5;
  opt.measure_s = 2.0;
  opt.seed = seed;
  opt.certify = true;
  return opt;
}

void ExpectSameCertification(const StreamCertification& a,
                             const StreamCertification& b) {
  EXPECT_EQ(a.enabled, b.enabled);
  EXPECT_EQ(a.window_s, b.window_s);
  EXPECT_EQ(a.events_observed, b.events_observed);
  EXPECT_EQ(a.walks_replayed, b.walks_replayed);
  EXPECT_EQ(a.charges_applied, b.charges_applied);
  EXPECT_EQ(a.windows_closed, b.windows_closed);
  EXPECT_EQ(a.observed_through_s, b.observed_through_s);
  EXPECT_EQ(a.certified_through_s, b.certified_through_s);
  EXPECT_EQ(a.certified_from_s, b.certified_from_s);
  EXPECT_EQ(a.lag_windows, b.lag_windows);
  EXPECT_EQ(a.lost_prefix_events, b.lost_prefix_events);
  EXPECT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.blamed_writers, b.blamed_writers);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].group, b.nodes[i].group) << "node " << i;
    EXPECT_EQ(a.nodes[i].level, b.nodes[i].level) << "node " << i;
    EXPECT_EQ(a.nodes[i].checks, b.nodes[i].checks) << "node " << i;
    EXPECT_EQ(a.nodes[i].violated, b.nodes[i].violated) << "node " << i;
    EXPECT_EQ(a.nodes[i].certified_through_s, b.nodes[i].certified_through_s)
        << "node " << i;
  }
}

TEST(ClusterCertifyTest, OnlineVerdictMatchesOfflineAcrossSeeds) {
  for (const uint64_t seed : {1ull, 7ull, 23757ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ClusterOptions options = CertifyOptions(seed);
    GlobalTrace().set_enabled(false);
    GlobalTrace().Reset();
    const SimResult live = RunCluster(options);
    ASSERT_TRUE(live.certification.enabled);
    EXPECT_TRUE(live.certification.certified());
    EXPECT_GT(live.certification.walks_replayed, 0u);

    // The same run again with capture on leaves its whole event stream
    // in the global ring.
    GlobalTrace().set_enabled(true);
    RunCluster(options);
    GlobalTrace().set_enabled(false);
    ASSERT_EQ(GlobalTrace().dropped(), 0u);
    const std::vector<TraceEvent> events = GlobalTrace().Snapshot();
    GlobalTrace().Reset();

    // The live certifier subscribed to its kinds only and heartbeat to the
    // run's end; certifying those events of the capture with the same
    // heartbeat gives its certification field by field.
    std::vector<TraceEvent> observed;
    for (const TraceEvent& e : events) {
      if ((StreamCertifier::kObservedKinds & TraceKindBit(e.type)) != 0) {
        observed.push_back(e);
      }
    }
    EXPECT_LT(observed.size(), events.size());
    const int64_t run_end =
        static_cast<int64_t>(options.warmup_s * kMicrosPerSecond) +
        static_cast<int64_t>(options.measure_s * kMicrosPerSecond);
    ExpectSameCertification(
        live.certification,
        CertifySchedule(observed, options.series_window_s,
                        /*lost_prefix_events=*/0, run_end));

    // `esr audit` over the full capture reaches the same verdict.
    const AuditReport audit = AuditTrace(events);
    EXPECT_TRUE(audit.certified());
    EXPECT_EQ(audit.certification.walks_replayed,
              live.certification.walks_replayed);
    EXPECT_EQ(audit.certification.charges_applied,
              live.certification.charges_applied);
  }
}

TEST(ClusterCertifyTest, ObserveOnlyRunCertifiesLikeACapturingRun) {
  for (const uint64_t seed : {1ull, 7ull, 23757ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GlobalTrace().set_enabled(false);
    GlobalTrace().Reset();
    const SimResult observed = RunCluster(CertifyOptions(seed));
    // Certify-only: the recorder stored nothing.
    EXPECT_EQ(GlobalTrace().recorded(), 0u);

    GlobalTrace().set_enabled(true);
    const SimResult captured = RunCluster(CertifyOptions(seed));
    GlobalTrace().set_enabled(false);
    EXPECT_GT(GlobalTrace().recorded(), 0u);
    GlobalTrace().Reset();

    ASSERT_TRUE(observed.certification.enabled);
    EXPECT_GT(observed.certification.walks_replayed, 0u);
    EXPECT_FALSE(observed.certification.nodes.empty());
    ExpectSameCertification(observed.certification, captured.certification);
    EXPECT_EQ(observed.committed, captured.committed);
    EXPECT_EQ(observed.aborts, captured.aborts);
    EXPECT_EQ(observed.ops_executed, captured.ops_executed);
  }
}

TEST(ClusterCertifyTest, SeriesWindowsCarryTheLiveWatermark) {
  ClusterOptions opt = CertifyOptions(7);
  opt.warmup_s = 1.0;
  opt.measure_s = 3.0;
  opt.collect_series = true;
  opt.series_window_s = 1.0;
  const SimResult result = RunCluster(opt);
  GlobalTrace().Reset();

  ASSERT_EQ(result.series.windows.size(), 4u);
  for (size_t i = 0; i < result.series.windows.size(); ++i) {
    // The sampler fires exactly at each window boundary, after the
    // certifier's heartbeat: a healthy run certifies through boundary
    // (i+1) with zero lag.
    EXPECT_DOUBLE_EQ(result.series.windows[i].certified_through_s,
                     static_cast<double>(i + 1))
        << "window " << i;
  }
  EXPECT_DOUBLE_EQ(result.certification.certified_through_s, 4.0);
  EXPECT_DOUBLE_EQ(result.certification.lag_windows, 0.0);
}

TEST(ClusterCertifyTest, CertificationIsObservationallyPure) {
  ClusterOptions plain = CertifyOptions(11);
  plain.certify = false;
  const SimResult without = RunCluster(plain);
  const SimResult with = RunCluster(CertifyOptions(11));
  GlobalTrace().Reset();
  EXPECT_EQ(without.committed, with.committed);
  EXPECT_EQ(without.aborts, with.aborts);
  EXPECT_EQ(without.ops_executed, with.ops_executed);
  EXPECT_EQ(without.inconsistent_ops, with.inconsistent_ops);
  EXPECT_FALSE(without.certification.enabled);
  EXPECT_TRUE(with.certification.enabled);
}

#endif  // ESR_TRACE_DISABLED

}  // namespace
}  // namespace esr
