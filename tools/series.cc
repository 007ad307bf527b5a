// `esr series`, the series summarizer: digests a per-window telemetry CSV
// captured with `--series` (any bench figure binary) into a run-quality
// report —
//
//   1. the steady-state window, found by MSER-5 truncation over the
//      committed-per-window throughput series, with steady-state
//      throughput / abort rate / MPL / operation latency;
//   2. the run's tightest epsilon headroom: which hierarchy node came
//      closest to its inconsistency bound, in which window, under which
//      limit — the margin-to-violation signal, not just the violation;
//   3. a per-node bound-utilization table over all charged nodes.
//
// Usage:
//   esr series <series.csv> [--json]
//   esr series --demo | --demo-negative [--json]
//
// --demo summarizes a built-in synthetic ramp-then-steady series;
// --demo-negative is the same series with one window pushed past its
// bound, demonstrating — and letting CI assert — that a negative-headroom
// window is detected and named.
//
// Exit status mirrors `esr audit`: 0 when every window kept positive
// headroom, 2 when any node's headroom went negative (a bound violation
// the engine should have prevented), 1 on usage or I/O errors.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cli.h"
#include "obs/series.h"

namespace esr::cli {
namespace {

void PrintSummary(const esr::RunSeries& series,
                  const esr::SeriesSummary& s) {
  std::printf("=== series summary: %s ===\n",
              series.source.empty() ? "(unlabeled run)"
                                    : series.source.c_str());
  std::printf("windows: %zu x %.1fs\n", s.total_windows, series.window_s);
  if (s.steady_state_found) {
    std::printf("steady state: found after %zu warmup window(s) (MSER-5)\n",
                s.warmup_windows);
  } else {
    std::printf(
        "steady state: NOT FOUND (MSER-5 never settled; stats below "
        "cover the whole run)\n");
  }
  std::printf("  throughput      %8.2f tps\n", s.steady_throughput);
  std::printf("  abort rate      %8.1f %%\n", 100.0 * s.steady_abort_rate);
  std::printf("  mean active MPL %8.2f\n", s.steady_mean_mpl);
  std::printf("  mean op latency %8.2f ms\n", s.steady_mean_op_latency_ms);

  if (s.certification_observed) {
    std::printf("certified through: %.1f s (streaming bound certification%s)\n",
                s.certified_through_s,
                s.certification_froze ? "; WATERMARK FROZE mid-run" : "");
  }

  if (!s.headroom_observed) {
    std::printf(
        "headroom: no bounded charges observed (unbounded run, or a "
        "build with tracing disabled)\n");
    return;
  }
  std::printf(
      "tightest headroom: %.1f%% at node '%s' in window %zu (limit %g)\n",
      100.0 * s.tightest_headroom_frac, s.tightest_node.c_str(),
      s.tightest_window, s.tightest_limit);

  std::printf("\n%-16s %12s %12s %10s %8s %10s\n", "node", "peak_accum",
              "min_headroom", "window", "limit", "charges");
  for (const esr::SeriesNodeSummary& node : s.nodes) {
    if (node.charges <= 0) continue;
    std::printf("%-16s %12.1f %11.1f%% %10zu %8g %10lld\n",
                node.name.c_str(), node.peak_accumulated,
                100.0 * node.min_headroom_frac, node.min_window,
                node.limit_at_min, static_cast<long long>(node.charges));
  }

  if (s.negative_headroom) {
    std::printf(
        "\nVIOLATION: node '%s' exceeded its bound in window %zu "
        "(headroom %.1f%% of limit %g)\n",
        s.tightest_node.c_str(), s.tightest_window,
        100.0 * s.tightest_headroom_frac, s.tightest_limit);
  }
}

}  // namespace

int Series(const std::vector<std::string>& args) {
  bool json = false;
  bool demo = false;
  bool demo_negative = false;
  std::vector<std::string> inputs;
  if (!ParseFlags(args,
                  {{"--json", &json}, {"--demo", &demo},
                   {"--demo-negative", &demo_negative}},
                  &inputs)) {
    return Usage();
  }
  // Exactly one input: a series file, or one of the built-in demos.
  if (inputs.size() + (demo ? 1 : 0) + (demo_negative ? 1 : 0) != 1) {
    return Usage();
  }

  esr::RunSeries series;
  if (demo || demo_negative) {
    series = esr::BuildDemoSeries(/*with_violation=*/demo_negative);
  } else {
    esr::Result<esr::RunSeries> read = esr::ReadSeriesCsvFile(inputs[0]);
    if (!read.ok()) {
      std::fprintf(stderr, "esr series: %s\n",
                   read.status().ToString().c_str());
      return 1;
    }
    series = *std::move(read);
  }

  const esr::SeriesSummary summary = esr::SummarizeSeries(series);
  if (json) {
    esr::WriteSeriesSummaryJson(summary, std::cout);
  } else {
    PrintSummary(series, summary);
  }
  if (summary.negative_headroom && json) {
    // The printed report names the violation; keep the JSON stream pure
    // and route the human-readable pointer to stderr.
    std::fprintf(stderr,
                 "esr series: node '%s' exceeded its bound in window %zu\n",
                 summary.tightest_node.c_str(), summary.tightest_window);
  }
  return summary.negative_headroom ? 2 : 0;
}

}  // namespace esr::cli
