#include "driver/supervisor.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "support/ensure.hpp"
#include "support/fnv.hpp"

namespace wp::driver {

namespace {

/// Strict unsigned parse shared by the numeric supervisor knobs.
u64 u64FromEnv(const char* name, u64 default_value, u64 max_value,
               const char* meaning) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return default_value;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 0);
  if (end == env || *end != '\0' || errno == ERANGE || v > max_value ||
      std::strchr(env, '-') != nullptr) {
    std::fprintf(stderr,
                 "error: %s='%s' is not a valid %s (expected an integer "
                 "in [0, %llu])\n",
                 name, env, meaning, static_cast<unsigned long long>(max_value));
    std::exit(1);
  }
  return static_cast<u64>(v);
}

/// splitmix64 finalizer: decorrelates nearby inputs.
u64 mix(u64 x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

SupervisorConfig SupervisorConfig::fromEnv() {
  SupervisorConfig c;
  c.retries = static_cast<unsigned>(u64FromEnv(
      "WP_RETRIES", c.retries, 100, "retry count"));
  c.cell_timeout_ms = u64FromEnv("WP_CELL_TIMEOUT_MS", 0,
                                 24ULL * 60 * 60 * 1000,
                                 "per-cell timeout in milliseconds");
  c.isolate =
      u64FromEnv("WP_ISOLATE", 0, 1, "isolation flag (0 or 1)") != 0;

  const char* fault = std::getenv("WP_CELL_FAULT");
  if (fault != nullptr && *fault != '\0') {
    // The shared non-exiting parse (the sweep service validates request
    // fault specs with it too); only the *environment* knob escalates a
    // parse failure to exit 1, per the strict WP_* policy.
    std::string error;
    if (!fault::parseCellFault(fault, "WP_CELL_FAULT", c.cell_fault,
                               c.cell_fault_failures, error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      std::exit(1);
    }
  }
  return c;
}

u64 CellSupervisor::backoffSlots(u64 seed, std::string_view cell_key,
                                 unsigned attempt) {
  // Exponential-ish growth per attempt, jittered by the cell key so
  // retries of different cells don't stampede in lockstep — but every
  // input is replay-stable (seed, key, attempt), never wall-clock.
  const u64 h = mix(seed ^ fnv1a(cell_key) ^
                    (static_cast<u64>(attempt) * 0x9e3779b97f4a7c15ULL));
  const unsigned shift = attempt < 6 ? attempt : 6;
  return (1ULL + h % 64) << shift;  // [1, 64] .. [64, 4096] slots
}

u64 CellSupervisor::backoff(std::string_view cell_key,
                            unsigned attempt) const {
  const u64 slots = backoffSlots(seed_, cell_key, attempt);
  // A slot is one cooperative yield: long enough to let a competing
  // cell's compute proceed, short enough that quarantine of a hopeless
  // cell costs microseconds, not the sweep's wall-clock.
  for (u64 i = 0; i < slots; ++i) std::this_thread::yield();
  return slots;
}

sim::BudgetHook CellSupervisor::watchdogFor(
    const std::string& cell_key) const {
  sim::BudgetHook hook;
  if (config_.cell_timeout_ms == 0) return hook;  // disabled
  hook.interval = config_.timeout_check_interval;
  WP_ENSURE(hook.interval > 0,
            "SupervisorConfig.timeout_check_interval must be non-zero");
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(config_.cell_timeout_ms);
  const u64 timeout_ms = config_.cell_timeout_ms;
  hook.check = [cell_key, deadline, timeout_ms](u64 instructions) {
    if (std::chrono::steady_clock::now() >= deadline) {
      throw SimError("cell watchdog: '" + cell_key + "' exceeded "
                     "WP_CELL_TIMEOUT_MS=" + std::to_string(timeout_ms) +
                     " after " + std::to_string(instructions) +
                     " instructions");
    }
  };
  return hook;
}

void CellSupervisor::injectConfigCellFault(unsigned attempt) const {
  fault::injectCellFault(config_.cell_fault, config_.cell_fault_failures,
                         attempt, "WP_CELL_FAULT");
}

}  // namespace wp::driver
