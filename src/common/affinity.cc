#include "common/affinity.h"

#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace bohm {

unsigned HardwareConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

bool PinCurrentThreadToCpu(unsigned cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % HardwareConcurrency(), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

void SetCurrentThreadName(const std::string& name) {
#if defined(__linux__)
  // The kernel keeps 16 bytes, NUL included; longer names are refused.
  (void)pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
#else
  (void)name;
#endif
}

bool ShouldPin(unsigned threads) { return threads <= HardwareConcurrency(); }

}  // namespace bohm
