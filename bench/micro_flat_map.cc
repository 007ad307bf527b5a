// Microbenchmark of esr::FlatMap against std::unordered_map on the
// commit-path access shapes it replaced (PR 8): the per-transaction
// charge/observation maps (tiny, build-lookup-clear churn) and the lock
// table (long-lived, mixed insert/find/erase). Reported as min-of-N
// ops/sec so the numbers are stable on shared machines, and emitted as a
// JsonReport so `--registry <dir>` records them for cross-run trends
// (`esr bench`), like every figure harness.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "harness/harness.h"

namespace {

using esr::FlatMap;
using esr::ObjectId;
using esr::bench::AveragedResult;
using esr::bench::JsonReport;
using esr::bench::MaybeAppendToRegistry;
using esr::bench::RunScale;
using esr::bench::Table;

/// Min-of-`reps` wall-clock of `kernel()` (which performs `ops`
/// operations per call), returned as ops/sec. The kernel runs once
/// untimed to warm caches and the allocator.
template <typename Kernel>
double MinOfN(int reps, double ops, Kernel&& kernel) {
  kernel();
  double best_s = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    kernel();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best_s = std::min(best_s, elapsed.count());
  }
  return ops / best_s;
}

/// Uniform surface over FlatMap's PascalCase API and the standard
/// containers, so both sides of the comparison run the same kernel code.
struct FlatShim {
  FlatMap<ObjectId, double> map;
  void Reserve(size_t n) { map.Reserve(n); }
  double& At(ObjectId id) { return map[id]; }
  double* Find(ObjectId id) { return map.Find(id); }
  void Erase(ObjectId id) { map.Erase(id); }
  void Clear() { map.Clear(); }
};

struct StdShim {
  std::unordered_map<ObjectId, double> map;
  void Reserve(size_t n) { map.reserve(n); }
  double& At(ObjectId id) { return map[id]; }
  double* Find(ObjectId id) {
    auto it = map.find(id);
    return it == map.end() ? nullptr : &it->second;
  }
  void Erase(ObjectId id) { map.erase(id); }
  void Clear() { map.clear(); }
};

/// A transaction's life: build a map of `size` charges, look each up
/// twice (the observe-then-charge pattern), then drop the whole map.
template <typename Map>
uint64_t TxnChurnOnce(int size, int rounds) {
  uint64_t sink = 0;
  Map map;
  map.Reserve(static_cast<size_t>(size));
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < size; ++i) {
      const ObjectId id = static_cast<ObjectId>((i * 7919 + r) % 1000);
      map.At(id) += 1.0;
    }
    for (int pass = 0; pass < 2; ++pass) {
      for (int i = 0; i < size; ++i) {
        const ObjectId id = static_cast<ObjectId>((i * 7919 + r) % 1000);
        const double* v = map.Find(id);
        if (v != nullptr) sink += static_cast<uint64_t>(*v);
      }
    }
    map.Clear();
  }
  return sink;
}

/// The lock table's life: a long-lived map with interleaved insert,
/// lookup, and erase (grant, re-check, release). The `live` keys are
/// *contiguous*, which at larger sizes is deliberately adversarial for
/// FlatMap's identity-hash placement: backward-shift erase scans the
/// whole dense probe cluster. The simulator never holds that many
/// adjacent keys live at once (see the FlatMap probing contract in
/// common/flat_map.h); the row documents the cliff, not a hot path.
template <typename Map>
uint64_t LockTableOnce(int live, int rounds) {
  uint64_t sink = 0;
  Map map;
  map.Reserve(static_cast<size_t>(live) * 2);
  for (int i = 0; i < live; ++i) {
    map.At(static_cast<ObjectId>(i)) = 1.0;
  }
  for (int r = 0; r < rounds; ++r) {
    const ObjectId evict = static_cast<ObjectId>(r % live);
    const ObjectId enter = static_cast<ObjectId>(live + r);
    map.Erase(evict);
    map.At(enter) = 1.0;
    for (int probe = 0; probe < 8; ++probe) {
      const ObjectId id = static_cast<ObjectId>((r * 31 + probe * 131) %
                                                (live + r + 1));
      const double* v = map.Find(id);
      if (v != nullptr) sink += static_cast<uint64_t>(*v);
    }
    map.Erase(enter);
    map.At(evict) = 1.0;
  }
  return sink;
}

AveragedResult Point(double ops_per_sec) {
  AveragedResult result;
  result.throughput = ops_per_sec;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const RunScale scale = RunScale::FromEnv();
  const bool full = scale.preset == "full";
  const int reps = full ? 12 : 5;
  const int churn_rounds = full ? 200'000 : 50'000;
  const int lock_rounds = full ? 2'000'000 : 500'000;
  std::printf(
      "=== micro_flat_map: FlatMap vs std::unordered_map on commit-path "
      "shapes (min of %d reps) ===\n\n",
      reps);

  using Flat = FlatShim;
  using Std = StdShim;
  uint64_t sink = 0;

  JsonReport report("micro_flat_map", scale);
  Table table({"kernel", "size", "flat (Mops/s)", "unordered (Mops/s)",
               "ratio"});

  for (const int size : {8, 32}) {
    // ops per call: size inserts + 2*size lookups per round.
    const double ops = static_cast<double>(churn_rounds) * size * 3;
    const double flat = MinOfN(reps, ops, [&] {
      sink += TxnChurnOnce<Flat>(size, churn_rounds);
    });
    const double std_map = MinOfN(reps, ops, [&] {
      sink += TxnChurnOnce<Std>(size, churn_rounds);
    });
    table.AddRow({"txn-churn", Table::Int(size), Table::Num(flat / 1e6),
                  Table::Num(std_map / 1e6), Table::Num(flat / std_map)});
    report.AddPoint("txn_churn_flat", size, Point(flat));
    report.AddPoint("txn_churn_unordered", size, Point(std_map));
  }

  for (const int live : {64, 512}) {
    // ops per call: 2 erases + 2 inserts + 8 probes per round.
    const double ops = static_cast<double>(lock_rounds) * 12;
    const double flat = MinOfN(reps, ops, [&] {
      sink += LockTableOnce<Flat>(live, lock_rounds);
    });
    const double std_map = MinOfN(reps, ops, [&] {
      sink += LockTableOnce<Std>(live, lock_rounds);
    });
    table.AddRow({live > 64 ? "lock-dense!" : "lock-table",
                  Table::Int(live), Table::Num(flat / 1e6),
                  Table::Num(std_map / 1e6), Table::Num(flat / std_map)});
    report.AddPoint("lock_table_flat", live, Point(flat));
    report.AddPoint("lock_table_unordered", live, Point(std_map));
  }

  table.Print();
  std::printf(
      "\nlock-dense! keeps hundreds of *contiguous* keys live — an\n"
      "adversarial shape for identity-hash backward-shift erase that the\n"
      "simulator's bounded live sets never reach (common/flat_map.h).\n");
  if (sink == 0) std::printf("(impossible sink)\n");

  const std::string json_path = JsonReport::PathFromArgs(argc, argv);
  const esr::Status json_status = report.WriteToFile(json_path);
  if (!json_status.ok()) {
    std::fprintf(stderr, "json export failed: %s\n",
                 json_status.ToString().c_str());
    return 1;
  }
  const esr::Status reg_status =
      MaybeAppendToRegistry(argc, argv, report, /*jobs=*/1);
  if (!reg_status.ok()) {
    std::fprintf(stderr, "registry append failed: %s\n",
                 reg_status.ToString().c_str());
    return 1;
  }
  return 0;
}
