#include "common/spin.h"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#endif

namespace bohm {

// On Linux the park is a bare futex wait on the epoch word. libstdc++'s
// std::atomic::wait adds 16 polls (four of them sched_yield calls) and a
// process-wide waiter table before the same futex; in the open-loop
// benchmark at 100K txn/s on a 4-vCPU x86 VM that cost about 1 us of CPU
// per transaction.
// Both forms return at once when the epoch has already moved.

void IdleEvent::Park(uint32_t epoch) {
#if defined(__linux__)
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(&epoch_), FUTEX_WAIT_PRIVATE,
          epoch, nullptr, nullptr, 0);
#else
  epoch_.wait(epoch, std::memory_order_acquire);
#endif
}

void IdleEvent::WakeAll() {
#if defined(__linux__)
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(&epoch_), FUTEX_WAKE_PRIVATE,
          INT_MAX, nullptr, nullptr, 0);
#else
  epoch_.notify_all();
#endif
}

}  // namespace bohm
