// Cell supervision policy for the sweep executor: how many attempts a
// cell gets, the per-cell watchdog, and the harness-level cell-fault
// knob that exercises both paths on real benches. The policy is plain
// config; the executor's attempt loop (driver/sweep.cpp) applies it.
//
// The design mirrors the paper's own robustness argument: just as
// way-placement state is advisory (corrupting it can cost energy, never
// architectural results — PR 1's fault injector proves it), a failing
// sweep cell is advisory to the *experiment*: it may cost one table
// cell, never the whole bench. A cell that throws SimError is retried
// up to WP_RETRIES times; a cell that keeps failing is quarantined —
// tables render QUAR, aggregation excludes it behind an explicit
// degradation footer, and the bench exits 3 (degraded-but-complete)
// instead of aborting.
//
// Environment knobs (parsed strictly — garbage exits 1, never a silent
// default; numbers go through envUnsigned, support/number.hpp):
//   WP_RETRIES          extra attempts after a cell's first failure
//                       (default 1; 0 = fail straight to quarantine)
//   WP_CELL_TIMEOUT_MS  per-cell watchdog: one wall-clock deadline for
//                       all of a cell's attempts, armed before the
//                       first. An attempt still running at it is
//                       aborted with a SimError and treated like any
//                       other cell failure, and a retry gets only the
//                       time the deadline has left (default 0 = no
//                       watchdog). The retire loop polls it once per
//                       RetireChunk through the instruction-budget
//                       hook, so a host loop that retires no guest
//                       instruction is never stopped: the sweep process
//                       is the one crash domain (DESIGN.md §10).
//   WP_CELL_FAULT       harness fault injection for every non-baseline
//                       cell: "transient[:N]" (N failing attempts, then
//                       heals; default 1), "persistent" (always fails,
//                       forcing quarantine) or "hang" (the attempt
//                       retires nothing until its watchdog fires, so
//                       it needs WP_CELL_TIMEOUT_MS; without it the
//                       bench exits 1 at startup).
//
// A retry follows its failed attempt at once: transient faults heal by
// attempt index, not by waiting. See DESIGN.md §9.
#pragma once

#include <string>

#include "fault/fault.hpp"
#include "sim/processor.hpp"
#include "support/bitops.hpp"

namespace wp::driver {

struct SupervisorConfig {
  /// Extra attempts after the first failure (WP_RETRIES).
  unsigned retries = 1;
  /// Per-cell wall-clock budget in ms, across all of the cell's
  /// attempts; 0 disables the watchdog (WP_CELL_TIMEOUT_MS).
  u64 cell_timeout_ms = 0;
  /// Harness-level cell fault applied to every non-baseline cell
  /// (WP_CELL_FAULT); spec-level cell faults are independent of this.
  fault::CellFault cell_fault = fault::CellFault::kNone;
  u32 cell_fault_failures = 1;

  /// Strict environment parse: any malformed value exits 1 with a
  /// message naming the knob (envUnsigned for the numeric knobs).
  [[nodiscard]] static SupervisorConfig fromEnv();

  /// Total attempts a cell gets before quarantine (1 + retries).
  [[nodiscard]] unsigned maxAttempts() const { return 1 + retries; }

  /// The per-cell watchdog for @p cell_key: an instruction-budget hook
  /// that throws SimError once cell_timeout_ms have passed since this
  /// call. Empty (check == nullptr) when the watchdog is disabled.
  [[nodiscard]] sim::BudgetHook watchdogFor(const std::string& cell_key) const;
};

}  // namespace wp::driver
