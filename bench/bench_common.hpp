// Shared harness for the figure/table benches, on top of the parallel
// sweep executor in src/driver/sweep.hpp: prepares the benchmark suite
// once (profile on small input + way-placement layout) and prices
// arbitrary (geometry, scheme) combinations across a thread pool.
//
// Environment knobs (numbers are decimal or 0x-hex, read by
// support/number.hpp; anything else is a startup error):
//   WP_BENCH_WORKLOADS  comma-separated subset (default: all 23);
//                       unknown names are a startup error
//   WP_SEED             experiment-wide RNG seed (default: 0, the
//                       historical fixed inputs)
//   WP_JOBS             worker threads (default: hardware threads)
//   WP_LAYOUT           code-layout strategy spec for way-placement
//                       cells, `name` or `name{key=value,...}` (default:
//                       way_placement; unknown names are a startup
//                       error listing the registry)
//   WP_JSON             path for the machine-readable cell report
//   WP_TRACE            path for the JSONL sweep event log
#pragma once

#include <string>
#include <vector>

#include "driver/sweep.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "workloads/workload.hpp"

namespace wp::bench {

/// Workload names selected by WP_BENCH_WORKLOADS; unset or empty gives
/// @p fallback (the full suite, unless a bench has its own default
/// pool). Every name is validated against workloads::suiteNames(); a
/// typo exits with the bad name and the valid list instead of failing
/// deep inside workload construction. A list naming no workload (`,`)
/// or one workload twice also exits 1, rather than printing an empty or
/// double-weighted table.
[[nodiscard]] std::vector<std::string> selectedWorkloads(
    std::vector<std::string> fallback = workloads::suiteNames());

/// Experiment-wide RNG seed from WP_SEED (default 0); every bench
/// prints it in its header so any figure replays from the logged value.
/// Strictly parsed (envUnsigned) — `WP_SEED=abc`, `-1` or `010` is a
/// startup error, not some other seed.
[[nodiscard]] u64 experimentSeed();

/// The suite executor every bench runs on: selected workloads, default
/// energy parameters, WP_SEED, WP_JOBS. Call emitJsonIfRequested() on
/// it after the tables are printed.
[[nodiscard]] driver::SweepExecutor makeSuite();

/// The paper's initial configuration: 32 KB, 32-way, 32 B lines.
[[nodiscard]] inline cache::CacheGeometry initialICache() {
  return {32 * 1024, 32, 32};
}

/// Prints a standard bench header naming the figure being regenerated,
/// the experiment seed and the worker-thread count.
void printHeader(const std::string& title, const std::string& paper_ref);

/// Standard bench epilogue: prints the one-line throughput/progress
/// summary to stderr (stderr so stdout tables stay byte-identical at
/// any WP_JOBS) and emits the WP_JSON report if requested. When any
/// cell was quarantined, a degradation footer listing every QUAR cell
/// goes to stdout (part of the result, not a log line). Returns the
/// bench exit code — every fig/ablation/extension bench ends with
/// `return bench::finish(suite);`:
///   0  clean sweep, every cell priced
///   3  degraded-but-complete: >=1 cell quarantined, tables rendered
///      with QUAR markers and the remaining cells are trustworthy
///   5  interrupted: SIGTERM/SIGINT latched mid-sweep (makeSuite
///      installs the process shutdown latch) — cells that never
///      started render as QUAR behind an INTERRUPTED footer, and the
///      partial WP_JSON report is still flushed before exit
[[nodiscard]] int finish(const driver::SweepExecutor& suite);

/// Renders a checked suite average as a percentage table cell: "QUAR"
/// when every contributing cell was quarantined, the value with a '*'
/// suffix when only some were (the footer printed by finish() explains
/// the markers).
[[nodiscard]] std::string cellPct(
    const driver::SweepExecutor::SuiteAverage& a, int decimals = 1);

/// Same for plain numeric cells (ED products, ratios).
[[nodiscard]] std::string cellNum(
    const driver::SweepExecutor::SuiteAverage& a, int decimals = 3);

/// Throughput summary for benches that drive a bare Runner (no sweep
/// executor, so no memo/JSON): guest instructions, host simulate time
/// and MIPS from the runner's phase metrics. Printed to stderr.
void printRunnerSummary(const driver::Runner& runner);

}  // namespace wp::bench
