// Cell supervision policy for the sweep executor: retry with
// deterministic backoff, per-cell watchdog timeouts, and the harness-
// level cell-fault knob that exercises both paths on real benches.
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
//   WP_CELL_TIMEOUT_MS  per-cell watchdog: a simulation running longer
//                       than this wall-clock budget is aborted with a
//                       SimError and treated like any other cell
//                       failure (default 0 = no watchdog). Under
//                       WP_ISOLATE=1 the parent enforces the same
//                       budget from outside the worker process, so even
//                       a cell that stops retiring instructions (where
//                       the in-process instruction-budget hook can
//                       never fire) is killed and retried.
//   WP_ISOLATE          0|1 (default 0): run every cell attempt in a
//                       forked worker process (driver/worker.hpp). A
//                       SIGSEGV, OOM kill or runaway loop then costs
//                       one attempt of one cell — it feeds the same
//                       retry/backoff/quarantine ladder as a SimError —
//                       instead of the whole bench.
//   WP_CELL_FAULT       harness fault injection for every non-baseline
//                       cell: "transient[:N]" (N failing attempts, then
//                       heals; default 1), "persistent" (always fails,
//                       forcing quarantine), "crash[:N]" (attempt dies
//                       by SIGKILL; bare "crash" = every attempt,
//                       ":N" = N crashing attempts then heals) or
//                       "hang" (attempt wedges until the watchdog kills
//                       it). crash/hang are survivable only under
//                       WP_ISOLATE=1 — that is what they death-test.
//
// Backoff ordering is *seed-derived, not wall-clock*: the pause between
// attempts is a deterministic function of (experiment seed, cell key,
// attempt), so a replayed or resumed sweep schedules its retries
// identically — wall-clock backoff would make the retry interleaving
// (and so the trace) unreproducible. See DESIGN.md §9.
#pragma once

#include <string>
#include <string_view>

#include "fault/fault.hpp"
#include "sim/processor.hpp"
#include "support/bitops.hpp"

namespace wp::driver {

struct SupervisorConfig {
  /// Extra attempts after the first failure (WP_RETRIES).
  unsigned retries = 1;
  /// Per-cell wall-clock budget in ms; 0 disables the watchdog
  /// (WP_CELL_TIMEOUT_MS).
  u64 cell_timeout_ms = 0;
  /// Retired instructions between watchdog checks. Not an environment
  /// knob — tests shrink it to make tiny timeouts deterministic.
  u64 timeout_check_interval = 1u << 20;
  /// Run each cell attempt in a forked worker process (WP_ISOLATE).
  bool isolate = false;
  /// Harness-level cell fault applied to every non-baseline cell
  /// (WP_CELL_FAULT); spec-level cell faults are independent of this.
  fault::CellFault cell_fault = fault::CellFault::kNone;
  u32 cell_fault_failures = 1;

  /// Strict environment parse: any malformed value exits 1 with a
  /// message naming the knob (envUnsigned for the numeric knobs).
  [[nodiscard]] static SupervisorConfig fromEnv();
};

/// Stateless supervision helper owned by the SweepExecutor; the
/// executor drives the attempt loop (it owns the memo and metrics) and
/// asks this class for policy: how many attempts, how long to back off,
/// which watchdog to install.
class CellSupervisor {
 public:
  CellSupervisor(SupervisorConfig config, u64 experiment_seed)
      : config_(config), seed_(experiment_seed) {}

  [[nodiscard]] const SupervisorConfig& config() const { return config_; }

  /// Total attempts a cell gets before quarantine (1 + retries).
  [[nodiscard]] unsigned maxAttempts() const { return 1 + config_.retries; }

  /// Deterministic backoff weight for retry @p attempt of @p cell_key:
  /// derived from (seed, key, attempt) alone — never from wall-clock —
  /// so the retry ordering replays bit-identically. Exposed for tests.
  [[nodiscard]] static u64 backoffSlots(u64 seed, std::string_view cell_key,
                                        unsigned attempt);

  /// Cooperatively yields backoffSlots(...) times. Returns the slot
  /// count (for the trace).
  u64 backoff(std::string_view cell_key, unsigned attempt) const;

  /// The per-cell watchdog for @p cell_key: an instruction-budget hook
  /// that throws SimError once the cell has run past cell_timeout_ms.
  /// Empty (check == nullptr) when the watchdog is disabled.
  [[nodiscard]] sim::BudgetHook watchdogFor(const std::string& cell_key) const;

  /// Applies the config-level WP_CELL_FAULT to a (non-baseline) cell
  /// attempt; throws SimError on an injected failure.
  void injectConfigCellFault(unsigned attempt) const;

 private:
  SupervisorConfig config_;
  u64 seed_;
};

}  // namespace wp::driver
