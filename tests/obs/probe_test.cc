// The probe contract (obs/profile.h): one Probe per scope opens its
// wall-clock phase when the profiler is on and its causal span when
// capture is on, each exactly as it would alone, from one read of the
// gate word and one frame on the thread's probe stack.
//
// Every case runs the same scenario under one of the four gate states.
// In a build with ESR_DISABLE_TRACING the probes compile out, so every
// case expects neither spans nor phases.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace esr {
namespace {

#ifdef ESR_TRACE_DISABLED
constexpr bool kProbesCompiled = false;
#else
constexpr bool kProbesCompiled = true;
#endif

void SpinFor(std::chrono::microseconds d) {
  const int64_t until = ProfileNowNs() + d.count() * 1000;
  while (ProfileNowNs() < until) {
  }
}

// What the scenario saw from inside its scopes.
struct Observed {
  uint64_t first_span_id = 0;  // NextSpanId() before the scenario
  uint64_t next_span_id = 0;   // NextSpanId() after it
  uint64_t outer = 0;
  uint64_t walk = 0;
  uint64_t rpc = 0;
  uint64_t op = 0;
  uint64_t current_in_outer_before_span = 0;
  uint64_t current_in_walk = 0;
  uint64_t current_after_begin_span = 0;
  uint64_t current_in_reparented_op = 0;
  uint64_t current_after = 0;
  int64_t covered_ns = 0;  // wall time around the phase-nesting part
};

// A phase+span op probe whose span opens late (OpenSpan) with a fallback
// parent, a nested phase+span bound-walk probe whose fallback the open
// span beats, then a cross-callback RPC span re-established with
// ScopedSpanParent around a span-only op probe.
Observed RunScenario() {
  Observed seen;
  seen.first_span_id = GlobalTrace().NextSpanId();
  const int64_t start = ProfileNowNs();
  {
    Probe outer(ProfilePhase::kValidate);
    seen.current_in_outer_before_span = CurrentSpan();
    outer.OpenSpan(SpanKind::kOp, /*txn=*/1, /*site=*/1, /*target=*/10,
                   /*fallback_parent=*/77);
    seen.outer = outer.span();
    SpinFor(std::chrono::microseconds(200));
    {
      Probe walk(ProfilePhase::kBoundWalk);
      walk.OpenSpan(SpanKind::kBoundWalk, 1, 1, /*target=*/3,
                    /*fallback_parent=*/88);
      seen.walk = walk.span();
      seen.current_in_walk = CurrentSpan();
      ESR_TRACE_EVENT(TraceEvent::BoundCheck(1, 1, /*level=*/1, /*group=*/3,
                                             /*charged=*/10.0,
                                             /*limit=*/50.0,
                                             /*admitted=*/true));
      SpinFor(std::chrono::microseconds(200));
    }
    SpinFor(std::chrono::microseconds(200));
  }
  seen.covered_ns = ProfileNowNs() - start;

  seen.rpc = BeginSpan(SpanKind::kRpc, 3, 2, /*target=*/9, /*parent=*/42);
  seen.current_after_begin_span = CurrentSpan();
  {
    ScopedSpanParent reestablish(seen.rpc);
    Probe op(SpanKind::kOp, 3, 2, /*target=*/9, /*fallback_parent=*/55);
    seen.op = op.span();
    seen.current_in_reparented_op = CurrentSpan();
  }
  EndSpan(SpanKind::kRpc, seen.rpc, 3, 2);
  seen.current_after = CurrentSpan();
  seen.next_span_id = GlobalTrace().NextSpanId();
  return seen;
}

class ProbeContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalTrace().Reset();
    GlobalProfiler().Reset();
  }
  void TearDown() override {
    GlobalTrace().set_enabled(false);
    GlobalProfiler().set_enabled(false);
    GlobalTrace().Reset();
    GlobalProfiler().Reset();
  }

  // Runs the scenario with the given gates armed and checks each half of
  // the contract against whether its gate was (and probes exist).
  void RunAndCheck(bool capture, bool profile) {
    GlobalTrace().set_enabled(capture);
    GlobalProfiler().set_enabled(profile);
    const Observed seen = RunScenario();
    GlobalTrace().set_enabled(false);
    GlobalProfiler().set_enabled(false);

    EXPECT_EQ(seen.current_after_begin_span, 0u)
        << "BeginSpan must not touch the probe stack";
    EXPECT_EQ(seen.current_after, 0u);
    if (capture && kProbesCompiled) {
      CheckSpans(seen);
    } else {
      CheckNoSpans(seen);
    }
    if (profile && kProbesCompiled) {
      CheckPhases(seen);
    } else {
      CheckNoPhases();
    }
  }

  static void CheckNoSpans(const Observed& seen) {
    EXPECT_EQ(GlobalTrace().recorded(), 0u);
    EXPECT_EQ(seen.outer, 0u);
    EXPECT_EQ(seen.walk, 0u);
    EXPECT_EQ(seen.rpc, 0u);
    EXPECT_EQ(seen.op, 0u);
    EXPECT_EQ(seen.current_in_walk, 0u);
    EXPECT_EQ(seen.current_in_reparented_op, 0u);
    // Only the scenario's own two reads of the counter advanced it.
    EXPECT_EQ(seen.next_span_id, seen.first_span_id + 1);
  }

  static void CheckSpans(const Observed& seen) {
    EXPECT_EQ(seen.current_in_outer_before_span, 0u);
    EXPECT_NE(seen.outer, 0u);
    EXPECT_EQ(seen.current_in_walk, seen.walk);
    EXPECT_EQ(seen.current_in_reparented_op, seen.op);
    EXPECT_EQ(seen.next_span_id, seen.first_span_id + 5);

    const std::vector<TraceEvent> events = GlobalTrace().Snapshot();
    ASSERT_EQ(events.size(), 9u);
    // Empty stack: the fallback parent wins.
    EXPECT_EQ(events[0].type, TraceEventType::kSpanBegin);
    EXPECT_EQ(events[0].span, seen.outer);
    EXPECT_EQ(events[0].parent, 77u);
    // An open span beats the fallback.
    EXPECT_EQ(events[1].type, TraceEventType::kSpanBegin);
    EXPECT_EQ(events[1].span, seen.walk);
    EXPECT_EQ(events[1].parent, seen.outer);
    EXPECT_EQ(events[1].detail, static_cast<uint8_t>(SpanKind::kBoundWalk));
    // Instants attach to the innermost open span.
    EXPECT_EQ(events[2].type, TraceEventType::kBoundCheck);
    EXPECT_EQ(events[2].span, seen.walk);
    // Strict LIFO closing.
    EXPECT_EQ(events[3].type, TraceEventType::kSpanEnd);
    EXPECT_EQ(events[3].span, seen.walk);
    EXPECT_EQ(events[4].type, TraceEventType::kSpanEnd);
    EXPECT_EQ(events[4].span, seen.outer);
    // The cross-callback span keeps its explicit parent, and the
    // re-established span parents the op, beating its fallback.
    EXPECT_EQ(events[5].span, seen.rpc);
    EXPECT_EQ(events[5].parent, 42u);
    EXPECT_EQ(events[6].type, TraceEventType::kSpanBegin);
    EXPECT_EQ(events[6].span, seen.op);
    EXPECT_EQ(events[6].parent, seen.rpc);
    EXPECT_EQ(events[7].span, seen.op);
    EXPECT_EQ(events[8].type, TraceEventType::kSpanEnd);
    EXPECT_EQ(events[8].span, seen.rpc);
  }

  static void CheckNoPhases() {
    const ProfileSnapshot snap = GlobalProfiler().Snapshot();
    EXPECT_EQ(snap.TotalSelfNs(), 0u);
    for (const PhaseSnapshot& phase : snap.phases) {
      EXPECT_EQ(phase.count, 0u);
    }
  }

  static void CheckPhases(const Observed& seen) {
    const ProfileSnapshot snap = GlobalProfiler().Snapshot();
    const PhaseSnapshot& validate =
        snap.phases[static_cast<size_t>(ProfilePhase::kValidate)];
    const PhaseSnapshot& walk =
        snap.phases[static_cast<size_t>(ProfilePhase::kBoundWalk)];
    EXPECT_EQ(validate.count, 1u);
    EXPECT_EQ(walk.count, 1u);
    EXPECT_EQ(snap.TotalSelfNs(), validate.self_ns + walk.self_ns)
        << "span-only frames opened a phase";
    // The child's spin is excluded from the parent's self time but
    // included in the parent's full scope.
    EXPECT_GE(validate.self_ns, 400000u);
    EXPECT_GE(walk.self_ns, 200000u);
    EXPECT_GE(validate.scope_ms.max(), 0.6);
    // Self times tile the outer scope exactly: no double counting, no
    // gap, and nothing outside the covered wall time.
    EXPECT_NEAR(static_cast<double>(snap.TotalSelfNs()),
                validate.scope_ms.max() * 1e6, 1000.0);
    EXPECT_LE(snap.TotalSelfNs(), static_cast<uint64_t>(seen.covered_ns));
  }
};

TEST_F(ProbeContractTest, NeitherGateArmed) { RunAndCheck(false, false); }

TEST_F(ProbeContractTest, CaptureOnly) { RunAndCheck(true, false); }

TEST_F(ProbeContractTest, ProfilerOnly) { RunAndCheck(false, true); }

TEST_F(ProbeContractTest, BothGates) { RunAndCheck(true, true); }

#ifndef ESR_TRACE_DISABLED
TEST(ProbeGateTest, ProfilerBitBuildsNoEvents) {
  GlobalProfiler().set_enabled(true);
  EXPECT_TRUE(GlobalProfilerEnabled());
  EXPECT_FALSE(GlobalTraceCapturing());
  EXPECT_FALSE(GlobalTraceWants(TraceEventType::kBoundCheck));
  bool built = false;
  ESR_TRACE_EVENT((built = true, TraceEvent::CommitTxn(1, 1)));
  GlobalProfiler().set_enabled(false);
  EXPECT_FALSE(built) << "a profiler-only gate built an event";
  EXPECT_EQ(GlobalTraceGate(), 0u);
}

TEST(ProbeStackDeathTest, OverflowFailsLoudly) {
  EXPECT_DEATH(
      {
        GlobalProfiler().set_enabled(true);
        std::vector<std::unique_ptr<Probe>> probes;
        for (int i = 0; i <= kMaxProbeDepth; ++i) {
          probes.push_back(std::make_unique<Probe>(ProfilePhase::kValidate));
        }
      },
      "probe stack overflow");
}
#endif  // !ESR_TRACE_DISABLED

}  // namespace
}  // namespace esr
