#include "workload/generator.h"

#include <algorithm>

#include "common/logging.h"

namespace esr {

WorkloadGenerator::WorkloadGenerator(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), rng_(seed) {
  ESR_CHECK(spec_.num_objects > spec_.hot_set_size);
  ESR_CHECK(spec_.query_ops_min >= 1 &&
            spec_.query_ops_min <= spec_.query_ops_max);
  ESR_CHECK(spec_.update_ops_min >= 2 &&
            spec_.update_ops_min <= spec_.update_ops_max);
  if (!spec_.bound_factory) {
    query_bounds_ = BoundSpec::TransactionOnly(spec_.til);
    update_bounds_ = BoundSpec::TransactionOnly(spec_.tel);
  }
}

void WorkloadGenerator::Next(TxnScript* out) {
  if (rng_.Bernoulli(spec_.query_fraction)) {
    FillQuery(out);
  } else {
    FillUpdate(out);
  }
}

void WorkloadGenerator::FillQuery(TxnScript* out) {
  out->type = TxnType::kQuery;
  AssignBounds(TxnType::kQuery, &out->bounds);
  out->update_import_limit = 0;
  out->ops.clear();
  const size_t n = static_cast<size_t>(
      rng_.UniformInt(spec_.query_ops_min, spec_.query_ops_max));
  SampleObjects(n, spec_.query_hot_prob, ScriptOp::Kind::kRead, &out->ops);
}

void WorkloadGenerator::FillUpdate(TxnScript* out) {
  out->type = TxnType::kUpdate;
  AssignBounds(TxnType::kUpdate, &out->bounds);
  out->update_import_limit = spec_.update_import_til;
  out->ops.clear();
  const int64_t total =
      rng_.UniformInt(spec_.update_ops_min, spec_.update_ops_max);
  // Roughly half reads, half writes; at least one of each. The paper's
  // example update ETs interleave, with writes derived from earlier reads.
  const int64_t num_reads = std::max<int64_t>(1, total / 2);
  const int64_t num_writes = std::max<int64_t>(1, total - num_reads);
  // Reads and writes are sampled separately, with different hot-set
  // affinity each (see WorkloadSpec).
  SampleObjects(static_cast<size_t>(num_reads), spec_.update_read_hot_prob,
                ScriptOp::Kind::kRead, &out->ops);
  SampleObjects(static_cast<size_t>(num_writes), spec_.update_write_hot_prob,
                ScriptOp::Kind::kWrite, &out->ops);

  for (size_t i = static_cast<size_t>(num_reads); i < out->ops.size(); ++i) {
    ScriptOp& op = out->ops[i];
    op.source_read = static_cast<int32_t>(rng_.UniformInt(0, num_reads - 1));
    // Two-point delta mixture (see WorkloadSpec): |delta| uniform in
    // [m/2, 3m/2] around the chosen magnitude class, random sign.
    const Value m = rng_.Bernoulli(spec_.large_delta_prob)
                        ? spec_.large_write_delta
                        : spec_.small_write_delta;
    const Value magnitude = rng_.UniformInt(m / 2, m + m / 2);
    op.delta = rng_.Bernoulli(0.5) ? magnitude : -magnitude;
  }
}

std::vector<TxnScript> WorkloadGenerator::MakeLoad(size_t n) {
  std::vector<TxnScript> load;
  load.reserve(n);
  for (size_t i = 0; i < n; ++i) load.push_back(Next());
  return load;
}

void WorkloadGenerator::SampleObjects(size_t n, double hot_prob,
                                      ScriptOp::Kind kind,
                                      std::vector<ScriptOp>* ops) {
  ESR_CHECK(n <= spec_.num_objects);
  const size_t begin = ops->size();
  while (ops->size() - begin < n) {
    const ObjectId candidate = SampleOneObject(hot_prob);
    const auto first = ops->begin() + static_cast<std::ptrdiff_t>(begin);
    if (std::none_of(first, ops->end(), [candidate](const ScriptOp& op) {
          return op.object == candidate;
        })) {
      ScriptOp op;
      op.kind = kind;
      op.object = candidate;
      ops->push_back(op);
    }
  }
}

ObjectId WorkloadGenerator::SampleOneObject(double hot_prob) {
  if (rng_.Bernoulli(hot_prob)) {
    return static_cast<ObjectId>(
        rng_.UniformInt(0, static_cast<int64_t>(spec_.hot_set_size) - 1));
  }
  return static_cast<ObjectId>(
      rng_.UniformInt(static_cast<int64_t>(spec_.hot_set_size),
                      static_cast<int64_t>(spec_.num_objects) - 1));
}

void WorkloadGenerator::AssignBounds(TxnType type, BoundSpec* out) {
  if (spec_.bound_factory) {
    *out = spec_.bound_factory(type);
  } else {
    out->AssignFrom(type == TxnType::kQuery ? query_bounds_ : update_bounds_);
  }
}

Value ApplyDeltaReflecting(Value base, Value delta, Value min_value,
                           Value max_value) {
  Value v = base + delta;
  // Reflect at the range edges; two passes suffice for |delta| <= range.
  for (int i = 0; i < 2; ++i) {
    if (v > max_value) {
      v = max_value - (v - max_value);
    } else if (v < min_value) {
      v = min_value + (min_value - v);
    }
  }
  return std::clamp(v, min_value, max_value);
}

}  // namespace esr
