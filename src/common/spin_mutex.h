#ifndef ESR_COMMON_SPIN_MUTEX_H_
#define ESR_COMMON_SPIN_MUTEX_H_

#include <atomic>
#include <mutex>

namespace esr {

/// Tells the CPU the caller is busy-waiting: `pause` on x86 (saves power
/// and avoids the memory-order mis-speculation penalty when the awaited
/// line changes), `yield` on ARM, and a compiler-only fence elsewhere.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  __asm__ __volatile__("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// A std::mutex that spins before it sleeps. A contended lock() retries
/// try_lock up to kSpinTries times with a CPU pause between tries, and
/// only then blocks in the kernel. The engine's latches and transaction
/// table stripes guard short critical sections, so a waiter that parks
/// (a futex sleep, a wakeup and a context switch) usually pays more than
/// the hold it waited out. BasicLockable and Lockable, so std::lock_guard
/// and std::unique_lock work.
class SpinMutex {
 public:
  /// Failed try_locks a contended lock() absorbs before parking (about
  /// 3 us on a 4-core Xeon VM). Chosen by a sweep over 0/32/128/512 on
  /// the sharded engine's hot closed loop (bench/baseline/SPEED.md, the
  /// per-transaction commit section): 32 still parked about once per 10
  /// transactions, and 512 parked less than 128 but committed no faster.
  static constexpr int kSpinTries = 128;

  void lock() {
    if (!mu_.try_lock()) LockContended();
  }
  bool try_lock() { return mu_.try_lock(); }
  void unlock() { mu_.unlock(); }

  /// The contended tail of lock(), for callers that already saw a
  /// try_lock fail (ProfiledMutex times the wait from that failure).
  void LockContended() {
    for (int i = 0; i < kSpinTries; ++i) {
      CpuRelax();
      if (mu_.try_lock()) return;
    }
    mu_.lock();
  }

 private:
  std::mutex mu_;
};

}  // namespace esr

#endif  // ESR_COMMON_SPIN_MUTEX_H_
