// Causal-span machinery: nesting, instant attachment, span ids, and the
// validity of the exported Chrome trace structure (balanced sync pairs,
// id-matched async pairs, flow arrows), the fallback parent,
// cross-callback spans, and the disabled recorder. How spans and phases
// share one probe is the probe contract (probe_test.cc).

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/json_value.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace esr {
namespace {

#ifndef ESR_TRACE_DISABLED

// Every test runs against the process-global recorder (that is what the
// RAII helpers talk to), so isolate each one with a reset.
class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalTrace().Reset();
    GlobalTrace().set_enabled(true);
  }
  void TearDown() override {
    GlobalTrace().set_enabled(false);
    GlobalTrace().Reset();
  }
};

TEST_F(SpanTest, NestedSpansParentAutomatically) {
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    Probe outer(SpanKind::kOp, /*txn=*/1, /*site=*/1, /*target=*/10);
    outer_id = outer.span();
    EXPECT_NE(outer_id, 0u);
    EXPECT_EQ(CurrentSpan(), outer_id);
    {
      Probe inner(SpanKind::kBoundWalk, 1, 1, /*target=*/3);
      inner_id = inner.span();
      EXPECT_EQ(CurrentSpan(), inner_id);
    }
    EXPECT_EQ(CurrentSpan(), outer_id);
  }
  EXPECT_EQ(CurrentSpan(), 0u);

  const std::vector<TraceEvent> events = GlobalTrace().Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].type, TraceEventType::kSpanBegin);
  EXPECT_EQ(events[0].span, outer_id);
  EXPECT_EQ(events[0].parent, 0u);
  EXPECT_EQ(events[1].type, TraceEventType::kSpanBegin);
  EXPECT_EQ(events[1].span, inner_id);
  EXPECT_EQ(events[1].parent, outer_id);
  // Strict LIFO: the inner span closes before the outer.
  EXPECT_EQ(events[2].type, TraceEventType::kSpanEnd);
  EXPECT_EQ(events[2].span, inner_id);
  EXPECT_EQ(events[3].type, TraceEventType::kSpanEnd);
  EXPECT_EQ(events[3].span, outer_id);
}

TEST_F(SpanTest, InstantsAutoAttachToEnclosingSpan) {
  uint64_t walk_id = 0;
  {
    Probe walk(SpanKind::kBoundWalk, 2, 1, /*target=*/5);
    walk_id = walk.span();
    ESR_TRACE_EVENT(TraceEvent::BoundCheck(2, 1, /*level=*/1, /*group=*/5,
                                           /*charged=*/10.0, /*limit=*/50.0,
                                           /*admitted=*/true));
    // An explicit span is never overwritten by the stack.
    ESR_TRACE_EVENT(WithSpan(TraceEvent::ImportCharge(2, 1, 7, 10.0), 999));
  }
  ESR_TRACE_EVENT(TraceEvent::CommitTxn(2, 1));

  const std::vector<TraceEvent> events = GlobalTrace().Snapshot();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[1].type, TraceEventType::kBoundCheck);
  EXPECT_EQ(events[1].span, walk_id);
  EXPECT_EQ(events[2].type, TraceEventType::kImportCharge);
  EXPECT_EQ(events[2].span, 999u);
  // No span open: the instant stays unattached.
  EXPECT_EQ(events[4].type, TraceEventType::kCommit);
  EXPECT_EQ(events[4].span, 0u);
}

TEST_F(SpanTest, FallbackParentAppliesOnlyWhenStackIsEmpty) {
  {
    Probe orphan(SpanKind::kOp, 1, 1, /*target=*/0, /*fallback_parent=*/77);
    Probe nested(SpanKind::kBoundWalk, 1, 1, /*target=*/0,
                 /*fallback_parent=*/88);
  }
  const std::vector<TraceEvent> events = GlobalTrace().Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].parent, 77u);  // empty stack: fallback wins
  EXPECT_EQ(events[1].parent, events[0].span);  // stack beats fallback
}

TEST_F(SpanTest, BeginEndSpanCrossesCallbacksWithoutTouchingTheStack) {
  // The simulator's RPC spans outlive the callback that opened them, so
  // BeginSpan must not leave anything on the thread's stack.
  const uint64_t rpc = BeginSpan(SpanKind::kRpc, 3, 2, /*target=*/9,
                                 /*parent=*/42);
  ASSERT_NE(rpc, 0u);
  EXPECT_EQ(CurrentSpan(), 0u);

  // A later callback re-establishes it around the server call.
  {
    ScopedSpanParent reestablish(rpc);
    EXPECT_EQ(CurrentSpan(), rpc);
    Probe op(SpanKind::kOp, 3, 2, /*target=*/9);
    (void)op;
  }
  EXPECT_EQ(CurrentSpan(), 0u);
  EndSpan(SpanKind::kRpc, rpc, 3, 2);

  const std::vector<TraceEvent> events = GlobalTrace().Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].type, TraceEventType::kSpanBegin);
  EXPECT_EQ(events[0].parent, 42u);
  EXPECT_EQ(events[1].type, TraceEventType::kSpanBegin);
  EXPECT_EQ(events[1].parent, rpc);  // op parented to the re-established rpc
  EXPECT_EQ(events[3].type, TraceEventType::kSpanEnd);
  EXPECT_EQ(events[3].span, rpc);
}

TEST_F(SpanTest, DisabledRecorderMakesSpansFree) {
  GlobalTrace().set_enabled(false);
  const uint64_t id = BeginSpan(SpanKind::kRpc, 1, 1);
  EXPECT_EQ(id, 0u);
  EndSpan(SpanKind::kRpc, id, 1, 1);
  {
    Probe span(SpanKind::kOp, 1, 1);
    EXPECT_EQ(span.span(), 0u);
    EXPECT_EQ(CurrentSpan(), 0u);  // nothing pushed
  }
  EXPECT_EQ(GlobalTrace().recorded(), 0u);
}

TEST_F(SpanTest, SpanIdsAreUniqueAndResetRestartsThem) {
  const uint64_t a = BeginSpan(SpanKind::kOp, 1, 1);
  const uint64_t b = BeginSpan(SpanKind::kOp, 1, 1);
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  GlobalTrace().Reset();
  const uint64_t c = BeginSpan(SpanKind::kOp, 1, 1);
  EXPECT_EQ(c, a);  // id allocation restarted from 1
}

// -- Exported structure ---------------------------------------------------

TEST_F(SpanTest, ExportedSyncSpansAreBalancedAndOrdered) {
  {
    Probe rpc(SpanKind::kRpc, 4, 1, /*target=*/11);
    Probe op(SpanKind::kOp, 4, 1, /*target=*/11);
  }
  std::ostringstream out;
  GlobalTrace().ExportChromeTrace(out);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(out.str(), &root, &error)) << error;
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 4u);

  // Per-name B/E balance with B strictly first, per Chrome's LIFO rule.
  std::map<std::string, int> depth;
  for (const JsonValue& e : events->array) {
    const std::string name = e.Find("name")->string;
    const std::string ph = e.Find("ph")->string;
    ASSERT_TRUE(ph == "B" || ph == "E") << ph;
    depth[name] += ph == "B" ? 1 : -1;
    EXPECT_GE(depth[name], 0) << "E before B for " << name;
  }
  for (const auto& [name, d] : depth) EXPECT_EQ(d, 0) << name;

  // Begin events carry the causal linkage for offline consumers.
  const JsonValue* rpc_args = events->array[0].Find("args");
  ASSERT_NE(rpc_args, nullptr);
  ASSERT_NE(rpc_args->Find("span"), nullptr);
  ASSERT_NE(rpc_args->Find("parent"), nullptr);
  const JsonValue* op_args = events->array[1].Find("args");
  ASSERT_NE(op_args, nullptr);
  EXPECT_EQ(op_args->Find("parent")->number,
            rpc_args->Find("span")->number);
}

TEST_F(SpanTest, TxnSpansExportAsIdMatchedAsyncPairs) {
  const uint64_t txn_span = BeginSpan(SpanKind::kTxn, 5, 2);
  {
    // The engine records the txn span's end while the commit span is
    // still open — legal only because txn pairs are async ("b"/"e").
    Probe commit(SpanKind::kCommit, 5, 2, 0, txn_span);
    EndSpan(SpanKind::kTxn, txn_span, 5, 2);
  }
  std::ostringstream out;
  GlobalTrace().ExportChromeTrace(out);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(out.str(), &root, &error)) << error;
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 4u);

  const JsonValue& txn_b = events->array[0];
  EXPECT_EQ(txn_b.Find("name")->string, "txn");
  EXPECT_EQ(txn_b.Find("ph")->string, "b");
  EXPECT_EQ(txn_b.Find("cat")->string, "txn");
  const JsonValue& txn_e = events->array[2];
  EXPECT_EQ(txn_e.Find("ph")->string, "e");
  // Async pairs match by id, not stack position.
  ASSERT_NE(txn_b.Find("id"), nullptr);
  ASSERT_NE(txn_e.Find("id"), nullptr);
  EXPECT_EQ(txn_b.Find("id")->number, txn_e.Find("id")->number);
}

TEST_F(SpanTest, ConflictFlowArrowsPairByIdAndBindToSliceEnds) {
  // Waiter txn 6 anchors a flow at its op (id = the writer's TxnId 2);
  // the writer's teardown closes the arrow with its own id.
  GlobalTrace().Record(
      TraceEvent::Flow(TraceEventType::kFlowBegin, /*flow=*/2, /*txn=*/6,
                       /*site=*/1));
  GlobalTrace().Record(
      TraceEvent::Flow(TraceEventType::kFlowEnd, /*flow=*/2, /*txn=*/2,
                       /*site=*/1));
  std::ostringstream out;
  GlobalTrace().ExportChromeTrace(out);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(out.str(), &root, &error)) << error;
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);

  const JsonValue& s = events->array[0];
  EXPECT_EQ(s.Find("ph")->string, "s");
  EXPECT_EQ(s.Find("name")->string, "conflict");
  EXPECT_EQ(s.Find("tid")->number, 6.0);
  const JsonValue& f = events->array[1];
  EXPECT_EQ(f.Find("ph")->string, "f");
  EXPECT_EQ(f.Find("tid")->number, 2.0);
  ASSERT_NE(f.Find("bp"), nullptr);
  EXPECT_EQ(f.Find("bp")->string, "e");
  EXPECT_EQ(s.Find("id")->number, f.Find("id")->number);
}

#endif  // !ESR_TRACE_DISABLED

}  // namespace
}  // namespace esr
