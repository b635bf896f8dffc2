// Wait primitives.
//
// Two kinds of wait live here, and every wait loop in the codebase uses
// one of them:
//
//  * SpinWait — for waits on a peer that is working: the locks below, the
//    Bohm exec stripe loop (a peer is mid-transaction), the executor
//    engines and IdleEvent's busy branch (a pipeline stage waits behind a
//    sealed batch that is still executing). It spins with a pause
//    instruction for a short burst and then yields the processor, so a
//    pure spin cannot starve the thread it waits on when threads outnumber
//    cores.
//  * IdleEvent — for idle waits between pipeline threads, which can last
//    arbitrarily long (an engine below saturation is mostly idle), and
//    for the back-pressure waits upstream of the slowest stage (a client
//    facing a full input queue, the sequencer waiting for a batch slot).
//    It spins for a fixed time budget and then parks the thread in the
//    kernel until a producer notifies, so a waiting thread costs no CPU.
//
// The paper's prototype runs one pinned thread per physical core and lets
// every stage spin. That is affordable at saturation, but it burns every
// core it is given at any load. Parking after a short spin frees the
// cores when there is nothing to do, and at saturation frees the cores
// of the stages that wait for the bottleneck with queued work in hand; a
// stage waiting directly behind the executing batch keeps spinning (and
// yielding) as before, so it never pays a wake on the critical path.
//
// The locks here are annotated capabilities (common/thread_annotations.h):
// under Clang, -Wthread-safety statically checks that fields declared
// BOHM_GUARDED_BY one of these locks are only touched while it is held.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "common/macros.h"
#include "common/thread_annotations.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace bohm {

/// Emit a CPU pause/yield hint appropriate for spin loops.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Bounded-spin-then-yield helper. Usage:
///
///   SpinWait wait;
///   while (!condition()) wait.Pause();
class SpinWait {
 public:
  /// Number of pause iterations before falling back to yield.
  static constexpr uint32_t kSpinLimit = 128;

  void Pause() {
    if (count_ < kSpinLimit) {
      ++count_;
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }

  void Reset() { count_ = 0; }

 private:
  uint32_t count_ = 0;
};

/// Spin-then-park event count: the idle wait of the Bohm pipeline
/// (docs/CONCURRENCY.md rule R9). Usage, with `ready()` a side-effect-free
/// predicate over state other threads publish:
///
///   waiter:   event.Await([&] { return ready(); });
///   notifier: <publish the change>; event.Notify();
///
/// Await polls `ready()` with CpuRelax for kSpinNanos, then parks on the
/// epoch word. Before it parks, a waiter registers in the sleeper count,
/// issues a seq_cst fence and re-checks the predicate; Notify issues a
/// seq_cst fence after the publication and then reads the sleeper count.
/// This Dekker pairing rules out a lost wakeup: either the notifier sees
/// the registration and wakes the waiter, or the waiter's re-check sees
/// the published change and never parks. While nobody is parked, Notify
/// is one fence plus a load; otherwise it clears the count, bumps the
/// epoch and makes the wake syscall.
///
/// One event may serve many predicates: every waking Notify wakes every
/// parked waiter, each re-checks its own predicate and parks again if it
/// is still false. Callers must therefore Notify after *every* change a
/// waiter's predicate reads.
class alignas(kCacheLineSize) IdleEvent {
 public:
  /// How long Await spins before it parks. Waking a parked thread costs
  /// several microseconds of latency; a gap shorter than the budget costs
  /// none of it, a longer one costs no CPU past the budget. Chosen by
  /// measurement (docs/ARCHITECTURE.md, "Idle waits").
  static constexpr uint64_t kSpinNanos = 25'000;

  /// `spin_nanos` other than kSpinNanos exists for the primitive's own
  /// tests (0 parks on every wait, which maximizes the lost-wakeup window).
  explicit IdleEvent(uint64_t spin_nanos = kSpinNanos)
      : spin_nanos_(spin_nanos) {}
  BOHM_DISALLOW_COPY_AND_ASSIGN(IdleEvent);

  /// Wakes every parked waiter so it re-checks its predicate. Call after
  /// the store that publishes the change.
  void Notify() {
    StoreLoadBarrier();
    // relaxed: the seq_cst fence above pairs with the waiter's fence
    // after its registration (Dekker).
    if (sleepers_.load(std::memory_order_relaxed) == 0) return;
    // One notifier clears the registrations and wakes everyone; the
    // notifications that follow while the woken threads are still being
    // scheduled then cost no syscall. A thread that parks again
    // re-registers. (relaxed: the epoch bump below is the wake's ordering
    // point.)
    if (sleepers_.exchange(0, std::memory_order_relaxed) == 0) return;
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    WakeAll();
  }

  /// Returns once `ready()` holds; spins first, then parks.
  template <typename Pred>
  void Await(Pred ready) {
    Await(ready, [] { return false; });
  }

  /// As above, but while `busy()` holds the wait is back-pressure from a
  /// peer that is still working, not idleness: past the spin budget it
  /// keeps polling with SpinWait (which yields) instead of parking. A
  /// parked thread pays the wake latency on the critical path, which
  /// under CPU contention is a scheduler slice; see docs/CONCURRENCY.md
  /// rule R9. `busy` only picks spin versus park: the no-lost-wakeup
  /// argument never rests on it, so a waiter's predicate still needs a
  /// notifier for every change even where `busy` happens to hold.
  template <typename Pred, typename Busy>
  void Await(Pred ready, Busy busy) {
    for (;;) {
      if (Spin(ready)) return;
      if (busy()) {
        SpinWait wait;
        do {
          if (ready()) return;
          wait.Pause();
        } while (busy());
        continue;
      }
      // Read the epoch before registering: a Notify that sees this waiter
      // bumps the epoch after our read, so the park below returns at once
      // instead of sleeping through the wake.
      const uint32_t epoch = epoch_.load(std::memory_order_acquire);
      // relaxed: the seq_cst fence right after orders the registration
      // before the predicate re-check (the waiter half of the Dekker pair).
      sleepers_.fetch_add(1, std::memory_order_relaxed);
      StoreLoadBarrier();
      // A registration left behind here costs the next Notify one
      // spurious wake, which also clears it.
      if (ready()) return;
      Park(epoch);
    }
  }

 private:
  /// Polls `ready()` for the spin budget; true once it holds.
  template <typename Pred>
  bool Spin(Pred& ready) const {
    if (ready()) return true;
    if (spin_nanos_ == 0) return false;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(spin_nanos_);
    for (uint32_t i = 1;; ++i) {
      CpuRelax();
      if (ready()) return true;
      // The clock read costs about as much as a few pauses; sample it
      // every 8th iteration.
      if (i % 8 == 0 && std::chrono::steady_clock::now() >= deadline) {
        return false;
      }
    }
  }

  /// The seq_cst fence of the Dekker pair. ThreadSanitizer does not
  /// model standalone fences (GCC warns), so under it both sides do a
  /// seq_cst RMW of the sleeper count instead: RMWs of one word are
  /// totally ordered and the later one synchronizes with the earlier,
  /// which gives the same guarantee.
  void StoreLoadBarrier() {
#if defined(__SANITIZE_THREAD__)
    sleepers_.fetch_add(0, std::memory_order_seq_cst);
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  }

  /// Sleeps while the epoch still reads `epoch` (spin.cc). May return
  /// spuriously; Await re-checks either way.
  void Park(uint32_t epoch);
  /// Wakes every thread parked on the epoch word (spin.cc).
  void WakeAll();

  static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t),
                "the futex word must be a plain 32-bit integer");

  const uint64_t spin_nanos_;
  std::atomic<uint32_t> epoch_{0};
  /// Threads registered to park since the last waking Notify (an upper
  /// bound; only zero versus nonzero matters).
  std::atomic<uint32_t> sleepers_{0};
};

/// Minimal test-and-test-and-set spinlock with yielding back-off. Satisfies
/// the C++ Lockable requirements so it can be used with std::lock_guard —
/// but prefer SpinLockGuard below, which Clang's thread-safety analysis
/// understands (libstdc++'s std::lock_guard carries no annotations).
class BOHM_CAPABILITY("mutex") SpinLock {
 public:
  SpinLock() = default;
  BOHM_DISALLOW_COPY_AND_ASSIGN(SpinLock);

  void lock() BOHM_ACQUIRE() {
    SpinWait wait;
    for (;;) {
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
      // relaxed: pure read-side spin; the acquire exchange above is the
      // one that orders the critical section.
      while (locked_.load(std::memory_order_relaxed)) wait.Pause();
    }
  }

  bool try_lock() BOHM_TRY_ACQUIRE(true) {
    // relaxed: advisory peek only; the acquire exchange decides.
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() BOHM_RELEASE() {
    locked_.store(false, std::memory_order_release);
  }

 private:
  std::atomic<bool> locked_{false};
};

/// RAII guard for SpinLock, annotated so the thread-safety analysis knows
/// the lock is held for the guard's scope.
class BOHM_SCOPED_CAPABILITY SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock& lock) BOHM_ACQUIRE(lock) : lock_(lock) {
    lock_.lock();
  }
  ~SpinLockGuard() BOHM_RELEASE() { lock_.unlock(); }
  BOHM_DISALLOW_COPY_AND_ASSIGN(SpinLockGuard);

 private:
  SpinLock& lock_;
};

/// Reader-writer spinlock used by the 2PL lock table. Writers have
/// priority once waiting (they set the write bit and wait for readers to
/// drain), which prevents writer starvation on read-hot records.
class BOHM_CAPABILITY("mutex") RWSpinLock {
 public:
  RWSpinLock() = default;
  BOHM_DISALLOW_COPY_AND_ASSIGN(RWSpinLock);

  void LockShared() BOHM_ACQUIRE_SHARED() {
    SpinWait wait;
    for (;;) {
      // relaxed: optimistic peek; the CAS below provides the acquire.
      uint32_t cur = state_.load(std::memory_order_relaxed);
      if ((cur & kWriteBit) == 0 &&
          state_.compare_exchange_weak(cur, cur + kReader,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return;
      }
      wait.Pause();
    }
  }

  bool TryLockShared() BOHM_TRY_ACQUIRE_SHARED(true) {
    // relaxed: optimistic peek; the CAS provides the acquire on success.
    uint32_t cur = state_.load(std::memory_order_relaxed);
    return (cur & kWriteBit) == 0 &&
           state_.compare_exchange_strong(cur, cur + kReader,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  void UnlockShared() BOHM_RELEASE_SHARED() {
    state_.fetch_sub(kReader, std::memory_order_release);
  }

  void LockExclusive() BOHM_ACQUIRE() {
    SpinWait wait;
    // Claim the write bit first so new readers back off.
    for (;;) {
      // relaxed: optimistic peek; the CAS below provides the acquire.
      uint32_t cur = state_.load(std::memory_order_relaxed);
      if ((cur & kWriteBit) == 0 &&
          state_.compare_exchange_weak(cur, cur | kWriteBit,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        break;
      }
      wait.Pause();
    }
    // Wait for in-flight readers to drain.
    wait.Reset();
    while ((state_.load(std::memory_order_acquire) & ~kWriteBit) != 0) {
      wait.Pause();
    }
  }

  bool TryLockExclusive() BOHM_TRY_ACQUIRE(true) {
    uint32_t expected = 0;
    // relaxed: failure order — a failed CAS acquires nothing, so it needs
    // no ordering; only the successful acquire CAS enters the section.
    return state_.compare_exchange_strong(expected, kWriteBit,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  void UnlockExclusive() BOHM_RELEASE() {
    state_.fetch_and(~kWriteBit, std::memory_order_release);
  }

 private:
  static constexpr uint32_t kWriteBit = 1u;
  static constexpr uint32_t kReader = 2u;

  std::atomic<uint32_t> state_{0};
};

}  // namespace bohm
