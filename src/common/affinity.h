// Thread-to-core pinning. The paper pins every long-running thread 1:1 to
// a CPU core (Section 4). On machines with fewer cores than engine
// threads, pinning all threads to the same few cores would serialize the
// pipeline, so pinning auto-disables when it cannot be 1:1.
#pragma once

#include <cstdint>
#include <string>

namespace bohm {

/// Number of CPUs available to this process.
unsigned HardwareConcurrency();

/// Pins the calling thread to `cpu` (modulo available CPUs). Returns true
/// on success. No-op (returns false) on unsupported platforms.
bool PinCurrentThreadToCpu(unsigned cpu);

/// Names the calling thread (Linux: visible in /proc/self/task/*/comm and
/// `top -H`; truncated to 15 bytes). No-op on other platforms.
void SetCurrentThreadName(const std::string& name);

/// Policy helper: returns true when an engine that wants `threads` pinned
/// threads should actually pin them (i.e. there are at least that many
/// CPUs). All engines consult this so behaviour is uniform.
bool ShouldPin(unsigned threads);

}  // namespace bohm
