#include "hierarchy/bound_replay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"

namespace esr {
namespace {

// The replayer as first written: std::map state keyed per
// (transaction, direction) and a separate first-crossing index. Kept as
// the oracle the flat per-transaction state is checked against.
class ReferenceReplayer {
 public:
  BoundWalkReplayer::Outcome OnEvent(const TraceEvent& event) {
    BoundWalkReplayer::Outcome outcome;
    if (event.type == TraceEventType::kCommit ||
        event.type == TraceEventType::kAbort) {
      for (int dir = 0; dir < 2; ++dir) {
        replay_.erase({event.txn, dir});
        pending_.erase({event.txn, dir});
      }
      auto it = violation_index_.lower_bound({{event.txn, 0}, 0});
      while (it != violation_index_.end() &&
             it->first.first.first == event.txn) {
        it = violation_index_.erase(it);
      }
      return outcome;
    }
    if (event.type != TraceEventType::kBoundCheck) return outcome;
    const bool admitted = (event.detail & 1) != 0;
    const int dir = (event.detail >> 1) & 1;
    const Key key{event.txn, dir};
    pending_[key].push_back(event);
    if (!admitted) {
      pending_.erase(key);
      ++walks;
      outcome.walk_completed = true;
      return outcome;
    }
    if (event.level != 0) return outcome;
    auto& acc = replay_[key];
    for (const TraceEvent& node : pending_[key]) {
      const double next = acc[node.target] + node.charged;
      const double slack =
          1e-9 * std::max(1.0, std::fabs(node.limit)) + 1e-12;
      if (node.limit != kUnbounded && next > node.limit + slack) {
        const auto vkey = std::make_pair(key, node.target);
        auto it = violation_index_.find(vkey);
        if (it == violation_index_.end()) {
          violation_index_[vkey] = violations.size();
          outcome.new_violation = static_cast<int>(violations.size());
          violations.push_back(BoundViolation{
              event.txn, static_cast<ChargeDirection>(dir), node.target,
              node.level, node.ts_micros, 0, next, node.limit});
        } else {
          BoundViolation& v = violations[it->second];
          v.accumulated = std::max(v.accumulated, next);
        }
      }
      acc[node.target] = next;
      ++charges;
    }
    pending_.erase(key);
    ++walks;
    outcome.walk_completed = true;
    return outcome;
  }

  size_t walks = 0;
  size_t charges = 0;
  std::vector<BoundViolation> violations;

 private:
  using Key = std::pair<TxnId, int>;
  std::map<Key, std::unordered_map<uint64_t, double>> replay_;
  std::map<Key, std::vector<TraceEvent>> pending_;
  std::map<std::pair<Key, uint64_t>, size_t> violation_index_;
};

// A random certifier stream: several live transactions (small ids and
// ids near 2^64, as a trace file may carry) interleave bottom-up walks in
// both directions, node by node. Walks span up to four levels, may
// repeat a group, and are rejected at any node; transactions commit or
// abort mid-walk; limits are tight enough that charges cross them.
std::vector<TraceEvent> RandomStream(uint64_t seed) {
  Rng rng(seed);
  struct Walk {
    TxnId txn = 0;
    int dir = 0;
    int level = -1;  // next level to emit; -1 = no walk in flight
  };
  std::vector<Walk> walks;
  const int num_txns = static_cast<int>(rng.UniformInt(1, 5));
  for (int i = 0; i < num_txns; ++i) {
    const TxnId txn = rng.Bernoulli(0.3)
                          ? ~static_cast<TxnId>(rng.UniformInt(0, 3))
                          : static_cast<TxnId>(rng.UniformInt(1, 8));
    walks.push_back(Walk{txn, 0});
    walks.push_back(Walk{txn, 1});
  }
  const double limits[] = {kUnbounded, 2.0, 5.0, 12.0, 0.0};
  std::vector<TraceEvent> events;
  const int64_t length = rng.UniformInt(1, 200);
  for (int64_t ts = 0; ts < length; ++ts) {
    Walk& w = walks[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(walks.size()) - 1))];
    TraceEvent e;
    const int64_t roll = rng.UniformInt(0, 99);
    if (roll < 6) {
      e = rng.Bernoulli(0.5) ? TraceEvent::CommitTxn(w.txn, 1)
                             : TraceEvent::AbortTxn(w.txn, 1, 0);
      for (Walk& other : walks) {
        if (other.txn == w.txn) other.level = -1;
      }
    } else if (roll < 9) {
      e = TraceEvent::Op(TraceEventType::kRead, w.txn, 1, 3);
    } else {
      if (w.level < 0) w.level = static_cast<int>(rng.UniformInt(0, 3));
      // Three groups per level; the walk may hit the same one twice.
      const uint64_t group = static_cast<uint64_t>(w.level) * 4 +
                             static_cast<uint64_t>(rng.UniformInt(0, 2));
      const bool admitted = rng.Bernoulli(0.85);
      e = TraceEvent::BoundCheck(
          w.txn, 1, static_cast<uint16_t>(w.level), group,
          static_cast<double>(rng.UniformInt(0, 4)) * 0.75,
          limits[rng.UniformInt(0, 4)], admitted);
      e.detail |= static_cast<uint8_t>(w.dir << 1);
      w.level = admitted ? w.level - 1 : -1;
    }
    e.ts_micros = ts;
    events.push_back(e);
  }
  return events;
}

void ExpectSameViolation(const BoundViolation& a, const BoundViolation& b) {
  EXPECT_EQ(a.txn, b.txn);
  EXPECT_EQ(a.direction, b.direction);
  EXPECT_EQ(a.group, b.group);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.ts_begin, b.ts_begin);
  EXPECT_EQ(a.ts_end, b.ts_end);
  EXPECT_EQ(a.accumulated, b.accumulated);
  EXPECT_EQ(a.limit, b.limit);
}

TEST(BoundWalkReplayerTest, MatchesMapReferenceOnRandomStreams) {
  size_t total_violations = 0, total_walks = 0;
  for (uint64_t seed = 1; seed <= 10'000; ++seed) {
    SCOPED_TRACE(seed);
    ReferenceReplayer reference;
    BoundWalkReplayer replayer;
    const std::vector<TraceEvent> events = RandomStream(seed);
    for (size_t i = 0; i < events.size(); ++i) {
      const BoundWalkReplayer::Outcome want = reference.OnEvent(events[i]);
      const BoundWalkReplayer::Outcome got = replayer.OnEvent(events[i]);
      ASSERT_EQ(got.walk_completed, want.walk_completed) << "event " << i;
      ASSERT_EQ(got.new_violation, want.new_violation) << "event " << i;
    }
    ASSERT_EQ(replayer.walks_replayed(), reference.walks);
    ASSERT_EQ(replayer.charges_applied(), reference.charges);
    ASSERT_EQ(replayer.violations().size(), reference.violations.size());
    for (size_t i = 0; i < reference.violations.size(); ++i) {
      ExpectSameViolation(replayer.violations()[i], reference.violations[i]);
    }
    total_violations += reference.violations.size();
    total_walks += reference.walks;
  }
  // The streams must exercise what they are meant to.
  EXPECT_GT(total_violations, 10'000u);
  EXPECT_GT(total_walks, 100'000u);
}

}  // namespace
}  // namespace esr
