#include "storage/object_store.h"

#include <cmath>
#include <cstdint>

#include "common/logging.h"

namespace esr {
namespace {

// Uniform draw from an inconsistency range that may include kUnbounded.
Inconsistency SampleLimit(Rng* rng, Inconsistency lo, Inconsistency hi) {
  if (std::isinf(lo) || std::isinf(hi)) return kUnbounded;
  if (lo >= hi) return lo;
  return rng->UniformDouble(lo, hi);
}

}  // namespace

ObjectStore::ObjectStore(const ObjectStoreOptions& options)
    : options_(options),
      rng_(options.seed),
      history_arena_(options.num_objects, options.history_depth) {
  ESR_CHECK(options_.num_objects > 0);
  ESR_CHECK(options_.min_value <= options_.max_value);
  ESR_CHECK(options_.history_depth >= 1);
  objects_.reserve(options_.num_objects);
  for (size_t i = 0; i < options_.num_objects; ++i) {
    const Value v = rng_.UniformInt(options_.min_value, options_.max_value);
    const ObjectId id = static_cast<ObjectId>(i);
    ObjectRecord rec(id, v, history_arena_.SlotFor(id),
                     options_.history_depth);
    rec.set_oil(SampleLimit(&rng_, options_.min_oil, options_.max_oil));
    rec.set_oel(SampleLimit(&rng_, options_.min_oel, options_.max_oel));
    objects_.push_back(std::move(rec));
  }
}

ObjectRecord& ObjectStore::Get(ObjectId id) {
  ESR_CHECK(Contains(id)) << "object " << id << " out of range";
  return objects_[id];
}

const ObjectRecord& ObjectStore::Get(ObjectId id) const {
  ESR_CHECK(Contains(id)) << "object " << id << " out of range";
  return objects_[id];
}

void ObjectStore::Prefetch(ObjectId id) const {
  constexpr uintptr_t kLine = 64;  // x86-64 and most AArch64 cores
  const uintptr_t begin = reinterpret_cast<uintptr_t>(&Get(id));
  const uintptr_t end = begin + sizeof(ObjectRecord);
  for (uintptr_t line = begin & ~(kLine - 1); line < end; line += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
}

Result<Value> ObjectStore::ReadValue(ObjectId id) const {
  if (!Contains(id)) {
    return Status::NotFound("object " + std::to_string(id));
  }
  return objects_[id].value();
}

void ObjectStore::SetObjectImportLimits(Inconsistency lo, Inconsistency hi) {
  for (ObjectRecord& rec : objects_) rec.set_oil(SampleLimit(&rng_, lo, hi));
}

void ObjectStore::SetObjectExportLimits(Inconsistency lo, Inconsistency hi) {
  for (ObjectRecord& rec : objects_) rec.set_oel(SampleLimit(&rng_, lo, hi));
}

Value ObjectStore::TotalValue() const {
  Value total = 0;
  for (const ObjectRecord& rec : objects_) total += rec.value();
  return total;
}

}  // namespace esr
