#ifndef ESR_TESTS_TESTING_TRACE_HISTORY_H_
#define ESR_TESTS_TESTING_TRACE_HISTORY_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "obs/trace.h"

namespace esr {
namespace testing {

/// Event-stream builder with explicit timestamps (the certifier only looks
/// at what the events say, never at wall time).
class History {
 public:
  void At(int64_t ts, TraceEvent e) {
    e.ts_micros = ts;
    events_.push_back(e);
  }
  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  std::vector<TraceEvent> events_;
};

/// One bottom-up import walk: group node (level 1), then the transaction
/// root (level 0), both admitted.
inline void ImportWalk(History* h, int64_t ts, TxnId txn, SiteId site,
                       uint64_t group, double charge, double group_limit,
                       double til) {
  h->At(ts, TraceEvent::BoundCheck(txn, site, /*level=*/1, group, charge,
                                   group_limit, /*admitted=*/true));
  h->At(ts + 1, TraceEvent::BoundCheck(txn, site, /*level=*/0, /*group=*/0,
                                       charge, til, /*admitted=*/true));
}

/// The `esr audit --demo-violation` history: a buggy engine admits 30 then
/// 40 against group 5 (limit 50), so the second walk leaves the node at 70
/// while the root check (limit 100) stays honest.
inline std::vector<TraceEvent> DemoViolationHistory() {
  History h;
  h.At(1000, TraceEvent::BeginTxn(7, TxnType::kQuery, 1));
  ImportWalk(&h, 1011, 7, 1, /*group=*/5, 30.0, /*group_limit=*/50.0,
             /*til=*/100.0);
  ImportWalk(&h, 1021, 7, 1, 5, 40.0, 50.0, 100.0);
  h.At(1100, TraceEvent::CommitTxn(7, 1));
  return h.events();
}

}  // namespace testing
}  // namespace esr

#endif  // ESR_TESTS_TESTING_TRACE_HISTORY_H_
