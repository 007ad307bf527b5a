#ifndef ESR_COMMON_SATURATING_H_
#define ESR_COMMON_SATURATING_H_

#include <cstdint>
#include <limits>

namespace esr {

// Saturating int64_t arithmetic for timestamps read from outside the
// program: a capture may hold any int64_t, so differences and sums of
// them clamp to the type's range instead of overflowing.

/// a + b, clamped to the int64_t range instead of overflowing.
inline int64_t SaturatingAdd(int64_t a, int64_t b) {
  int64_t sum = 0;
  if (!__builtin_add_overflow(a, b, &sum)) return sum;
  return b > 0 ? std::numeric_limits<int64_t>::max()
               : std::numeric_limits<int64_t>::min();
}

/// a - b, clamped to the int64_t range instead of overflowing.
inline int64_t SaturatingSub(int64_t a, int64_t b) {
  int64_t difference = 0;
  if (!__builtin_sub_overflow(a, b, &difference)) return difference;
  return b < 0 ? std::numeric_limits<int64_t>::max()
               : std::numeric_limits<int64_t>::min();
}

}  // namespace esr

#endif  // ESR_COMMON_SATURATING_H_
