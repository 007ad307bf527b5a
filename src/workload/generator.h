#ifndef ESR_WORKLOAD_GENERATOR_H_
#define ESR_WORKLOAD_GENERATOR_H_

#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "workload/spec.h"

namespace esr {

/// Produces the randomly generated transaction load of the performance
/// tests: a stream of query ETs (reads computing a sum) and update ETs
/// (reads feeding writes), with hot-set skewed object access and the
/// paper's size distributions. Deterministic given (spec, seed).
class WorkloadGenerator {
 public:
  WorkloadGenerator(const WorkloadSpec& spec, uint64_t seed);

  /// Fills `out` in place with the next transaction, a query with
  /// probability spec.query_fraction. Every field is overwritten; `ops`
  /// keeps its capacity, so a caller that reuses one script (the
  /// simulated client, the session driver) allocates nothing per
  /// transaction once the buffer has grown to the largest script.
  void Next(TxnScript* out);

  /// Value-returning forms of the same stream (one fresh script each).
  TxnScript Next() {
    TxnScript script;
    Next(&script);
    return script;
  }
  TxnScript NextQuery() {
    TxnScript script;
    FillQuery(&script);
    return script;
  }
  TxnScript NextUpdate() {
    TxnScript script;
    FillUpdate(&script);
    return script;
  }

  /// A whole load file of `n` transactions.
  std::vector<TxnScript> MakeLoad(size_t n);

  const WorkloadSpec& spec() const { return spec_; }

 private:
  void FillQuery(TxnScript* out);
  void FillUpdate(TxnScript* out);
  /// Appends `n` ops of `kind` on distinct objects drawn with the
  /// hot-set access skew (one read per object per transaction,
  /// Sec. 3.2.1). Distinctness holds among the ops this call appends;
  /// a rejected draw is a repeat of one of them, found in `drawn_`.
  void SampleObjects(size_t n, double hot_prob, ScriptOp::Kind kind,
                     std::vector<ScriptOp>* ops);
  /// Adds `object` to `drawn_`; false if it is already there.
  bool InsertDrawn(ObjectId object);
  ObjectId SampleOneObject(double hot_prob);
  void AssignBounds(TxnType type, BoundSpec* out);

  WorkloadSpec spec_;
  Rng rng_;
  /// The til/tel declarations, built once (unused under a bound_factory);
  /// AssignFrom copies them into a reused script without allocating.
  BoundSpec query_bounds_;
  BoundSpec update_bounds_;
  /// The objects one SampleObjects call has drawn: an open-addressed
  /// set (kInvalidObjectId = empty) of a power-of-two size at least
  /// twice the spec's largest script. It is sized by the script, not by
  /// num_objects, because some callers build one generator per
  /// transaction over a million objects.
  std::vector<ObjectId> drawn_;
};

/// Applies a write delta while keeping the value inside
/// [spec.min_value, spec.max_value] by reflecting at the edges, so object
/// values random-walk within the paper's 1000..9999 range.
Value ApplyDeltaReflecting(Value base, Value delta, Value min_value,
                           Value max_value);

}  // namespace esr

#endif  // ESR_WORKLOAD_GENERATOR_H_
