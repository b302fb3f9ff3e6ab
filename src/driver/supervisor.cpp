#include "driver/supervisor.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "support/ensure.hpp"
#include "support/number.hpp"

namespace wp::driver {

SupervisorConfig SupervisorConfig::fromEnv() {
  SupervisorConfig c;
  c.retries = static_cast<unsigned>(
      envUnsigned("WP_RETRIES", c.retries, 0, 100, "retry count"));
  c.cell_timeout_ms = envUnsigned("WP_CELL_TIMEOUT_MS", 0, 0,
                                  24ULL * 60 * 60 * 1000,
                                  "per-cell timeout in milliseconds");

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
    // A hang ends only at its watchdog: without one the bench would
    // wedge on its first faulted cell.
    if (c.cell_fault == fault::CellFault::kHang && c.cell_timeout_ms == 0) {
      std::fprintf(stderr,
                   "error: WP_CELL_FAULT=hang needs a deadline: set "
                   "WP_CELL_TIMEOUT_MS, or the first faulted cell would "
                   "block forever\n");
      std::exit(1);
    }
  }
  return c;
}

sim::BudgetHook SupervisorConfig::watchdogFor(
    const std::string& cell_key) const {
  sim::BudgetHook hook;
  if (cell_timeout_ms == 0) return hook;  // disabled
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(cell_timeout_ms);
  const u64 timeout_ms = cell_timeout_ms;
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

}  // namespace wp::driver
