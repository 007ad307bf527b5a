#ifndef ESR_SIM_LATENCY_MODEL_H_
#define ESR_SIM_LATENCY_MODEL_H_

#include <vector>

#include "common/random.h"
#include "common/timestamp.h"
#include "sim/event_queue.h"

namespace esr {

/// Timing parameters of the simulated client/server substrate, calibrated
/// to the prototype's measurements (Sec. 6): "A null RPC call takes about
/// 11 milliseconds to return while the average RPC call takes somewhere
/// between 17 and 20 milliseconds."
struct LatencyModelOptions {
  /// Round trip of an RPC that carries no operation payload
  /// (Begin/Commit/Abort acknowledgements).
  double null_rpc_ms = 11.0;
  /// Network + marshalling round trip of a Read/Write RPC, uniformly
  /// distributed over [min, max]; server CPU time is charged separately,
  /// so the total op latency lands in the prototype's measured 17-20 ms.
  double op_rpc_min_ms = 14.0;
  double op_rpc_max_ms = 16.5;
  /// Delay before a client re-issues an operation that was told to wait
  /// for an uncommitted writer (the wait-based strict-ordering protocol is
  /// client-polled over synchronous RPC).
  double wait_retry_ms = 5.0;
  /// Client-side turnaround between an abort response and the resubmission
  /// with a fresh timestamp ("aborts with immediate restarts").
  double restart_delay_ms = 1.0;
  /// Pure server CPU cost per operation; the server is a shared FIFO
  /// resource, so ops queue when it is busy. 3.5 ms/op caps the server
  /// near 286 ops/s — deliberately below the prototype's multithreaded
  /// capacity — so that wasted work from aborts, retries, and wait-polls
  /// pushes the system past the knee (thrashing) within MPL <= 10, as
  /// the paper's higher natural conflict ratio did. See DESIGN.md §4b.
  double server_cpu_per_op_ms = 3.5;
};

/// Samples message/processing delays and models the server CPU as a
/// single FIFO resource.
///
/// Sampling streams: the shared no-argument Sample* overloads draw from
/// one stream (bench/sys_characteristics and the tests use them; every
/// simulated cluster draws per site). The per-site overloads draw
/// from an independent stream per SiteId, a deterministic function of
/// (seed, site) only, so each client's latency sequence does not depend
/// on the other sites' schedule.
class LatencyModel {
 public:
  /// `num_sites` sizes the per-site stream table (site ids 0..num_sites-1
  /// are valid for the per-site overloads; 0 means shared-stream only).
  LatencyModel(const LatencyModelOptions& options, uint64_t seed,
               size_t num_sites = 0);

  /// Network + marshalling round-trip for an operation RPC, *excluding*
  /// server CPU (use ReserveServerCpu for that part).
  SimTime SampleOpRpc();
  SimTime SampleOpRpc(SiteId site);

  /// Round trip of a control RPC (Begin/Commit/Abort), with small jitter.
  SimTime SampleControlRpc();
  SimTime SampleControlRpc(SiteId site);

  SimTime WaitRetryDelay() const;
  SimTime RestartDelay() const;

  /// Reserves the server CPU for one op starting no earlier than
  /// `request_arrival`; returns the completion time of the server work.
  SimTime ReserveServerCpu(SimTime request_arrival);

  const LatencyModelOptions& options() const { return options_; }

 private:
  Rng& SiteRng(SiteId site);

  LatencyModelOptions options_;
  Rng rng_;
  std::vector<Rng> site_rngs_;
  SimTime server_busy_until_ = 0;
};

}  // namespace esr

#endif  // ESR_SIM_LATENCY_MODEL_H_
