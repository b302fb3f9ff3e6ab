// Parallel sweep execution over (workload × geometry × scheme) grids.
//
// The figure benches all follow the same shape: prepare the suite once,
// then price many independent simulations and average normalized
// metrics. SweepExecutor owns that shape. Simulations fan out across a
// work-stealing thread pool; every result is memoized under a
// deterministic cell key, and aggregation walks the prepared workloads
// in suite order reading from the memo — so a table's bytes are
// identical at any job count, and the baseline for each (workload,
// geometry) is priced exactly once no matter how many schemes share it.
//
// Every cell runs *supervised* (see driver/supervisor.hpp): a cell that
// throws SimError is retried with deterministic seed-derived backoff,
// and a cell that exhausts its attempts is quarantined — tagged with
// its full cell key, excluded from aggregation (SuiteAverage reports
// how many cells an average lost), rendered as QUAR by the benches, and
// surfaced through quarantined() so a bench can exit 3
// (degraded-but-complete) instead of aborting the whole figure.
//
// Environment knobs (parsed strictly — garbage is a startup error, not
// a silent default; numbers go through envUnsigned, support/number.hpp):
//   WP_JOBS       worker-thread count in [0, 4096]; 0 or unset = one per
//                 hardware thread
//   WP_JSON       path to write a machine-readable report of every
//                 priced cell (normalized energy/ED plus per-cell
//                 wall-clock, phase breakdown and guest MIPS) when the
//                 bench finishes
//   WP_TRACE      path for a JSONL event log of the sweep as it
//                 executes: per-workload prepare phases, cell
//                 start/end/failure/retry/quarantine with worker thread
//                 and durations, memo hits, report emission
//   WP_RETRIES / WP_CELL_TIMEOUT_MS / WP_CELL_FAULT / WP_ISOLATE
//                 cell supervision policy — see driver/supervisor.hpp.
//                 Under WP_ISOLATE=1 every cell attempt runs in a
//                 forked worker process (driver/worker.hpp), so a
//                 SIGSEGV or wedged loop costs one attempt of one
//                 cell, not the bench.
//   WP_STORE      directory of a persistent cross-run result store:
//                 cells whose stored record verifies (image digest +
//                 stats digest + seed) are served instead of simulated,
//                 freshly computed cells are published atomically, and
//                 concurrent sweeps sharing the directory coordinate
//                 through lock-file leases (WP_LEASE_TIMEOUT_MS) so a
//                 cell is computed once across processes. It is also
//                 the crash-recovery path: a killed sweep re-run on the
//                 same store recomputes only the cells it never
//                 published and prints a byte-identical table. See
//                 driver/result_store.hpp.
//
// Instrumentation is host-side only: with or without WP_TRACE/WP_JSON/
// WP_STORE, at any WP_JOBS, with or without WP_ISOLATE, the printed
// tables are byte-identical.
#pragma once

#include <chrono>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "driver/checkpoint.hpp"
#include "driver/result_store.hpp"
#include "driver/runner.hpp"
#include "driver/supervisor.hpp"
#include "support/metrics.hpp"
#include "support/shutdown.hpp"
#include "support/thread_pool.hpp"

namespace wp::driver {

/// Worker count from WP_JOBS. Unset, empty or "0" mean one thread per
/// hardware thread; anything but a decimal or 0x-hex count in [0, 4096]
/// exits 1 naming the knob.
[[nodiscard]] unsigned jobsFromEnv();

class SweepExecutor {
 public:
  /// One point of a sweep grid: a cache geometry plus a scheme to run
  /// on it (the matching baseline is implied and shared).
  struct Cell {
    cache::CacheGeometry icache;
    SchemeSpec spec;
  };

  /// Non-owning view of one memoized cell's fate. `result` is null iff
  /// the cell is quarantined; `error` then carries the tagged failure
  /// of the final attempt. Pointees live as long as the executor.
  struct CellView {
    const RunResult* result = nullptr;
    bool quarantined = false;
    unsigned attempts = 0;    ///< attempts spent (0 = served from the store)
    const std::string* error = nullptr;
  };

  /// A suite mean that knows what it lost: `excluded` counts workloads
  /// whose cell (or baseline) was quarantined and therefore left out.
  /// Benches render degraded() averages with a marker and a footer.
  struct SuiteAverage {
    double mean = 0.0;  ///< 0.0 when included == 0 (render QUAR, not a number)
    unsigned included = 0;
    unsigned excluded = 0;
    [[nodiscard]] bool degraded() const { return excluded > 0; }
  };

  /// One quarantined cell, for degradation footers and the JSON report.
  struct QuarantinedCell {
    std::string key;
    std::string error;
    unsigned attempts = 0;
    /// True when the cell never ran because a shutdown latch fired
    /// first (see the interrupt_latch constructor argument): the cell
    /// is excluded like any quarantined cell, but it represents work
    /// deliberately not started, not work that failed — benches count
    /// these in an INTERRUPTED footer instead of listing them as QUAR
    /// failures, and exit 5 instead of 3.
    bool interrupted = false;
  };

  /// Prepares @p workload_names (profile + layout) in parallel, kept in
  /// the given order for all later aggregation. @p jobs of 0 means
  /// WP_JOBS (which itself defaults to the hardware thread count).
  /// @p supervisor overrides the WP_RETRIES/WP_CELL_TIMEOUT_MS/
  /// WP_CELL_FAULT environment policy (tests pin it; benches pass
  /// nothing). All WP_* parsing and the WP_STORE open happen before
  /// any workload is prepared, so a bad environment fails in
  /// milliseconds.
  /// @p interrupt_latch, when non-null, makes the executor *interrupt-
  /// aware*: once the latch fires (SIGTERM/SIGINT), cells that have not
  /// started yet are immediately quarantined with `interrupted` set
  /// instead of being computed — a running cell always finishes, so no
  /// record is ever torn — and the bench can flush partial results and
  /// exit 5. Benches pass the process latch; the sweep service passes
  /// nothing (its drain protocol finishes queued work instead).
  explicit SweepExecutor(std::vector<std::string> workload_names,
                         energy::EnergyParams params = energy::EnergyParams{},
                         u64 seed = 0, unsigned jobs = 0,
                         const SupervisorConfig* supervisor = nullptr,
                         const ShutdownLatch* interrupt_latch = nullptr);

  /// Out of line: the memo map holds unique_ptrs to the private
  /// CellEntry, which is incomplete outside sweep.cpp.
  ~SweepExecutor();

  [[nodiscard]] const std::vector<PreparedWorkload>& prepared() const {
    return prepared_;
  }
  [[nodiscard]] const Runner& runner() const { return runner_; }
  [[nodiscard]] unsigned jobs() const { return pool_.threadCount(); }
  [[nodiscard]] const CellSupervisor& supervisor() const {
    return supervisor_;
  }

  /// Prices every (prepared workload × cell) plus the implied baselines
  /// across the pool. Already-memoized cells cost nothing; benches call
  /// this up front with their whole grid so the pool stays saturated
  /// instead of draining at each table cell. Never throws for a failing
  /// cell: failures retry and then quarantine (inspect via tryRun /
  /// quarantined()).
  void runAll(const std::vector<Cell>& cells);

  /// Memoized result of one simulation; computed on the calling thread
  /// on a miss. The reference stays valid for the executor's lifetime.
  /// A quarantined cell throws SimError tagged with the full cell key —
  /// use tryRun() to handle quarantine without exceptions.
  const RunResult& run(const PreparedWorkload& p,
                       const cache::CacheGeometry& icache,
                       const SchemeSpec& spec);

  /// Like run(), but a quarantined cell comes back as a CellView with
  /// `quarantined` set instead of a throw.
  [[nodiscard]] CellView tryRun(const PreparedWorkload& p,
                                const cache::CacheGeometry& icache,
                                const SchemeSpec& spec);

  /// Average of `metric(normalize(scheme, baseline))` across the suite,
  /// in preparation order. Missing cells are first priced in parallel,
  /// so this is also the one-call form of runAll for a single cell.
  /// Quarantined cells are excluded from the mean; use the Checked form
  /// when the caller needs to render that degradation.
  double averageNormalized(
      const cache::CacheGeometry& icache, const SchemeSpec& spec,
      const std::function<double(const Normalized&)>& metric);

  /// averageNormalized plus the included/excluded accounting benches
  /// need to render QUAR markers and degradation footers.
  SuiteAverage averageNormalizedChecked(
      const cache::CacheGeometry& icache, const SchemeSpec& spec,
      const std::function<double(const Normalized&)>& metric);

  /// Every quarantined cell so far, ordered by cell key (deterministic
  /// at any job count). Empty on a clean sweep.
  [[nodiscard]] std::vector<QuarantinedCell> quarantined() const;

  /// The memo key: every field of the geometry and spec that can change
  /// a result appears in it. Exposed for tests.
  [[nodiscard]] static std::string keyOf(const std::string& workload,
                                         const cache::CacheGeometry& g,
                                         const SchemeSpec& s);

  /// Writes the JSON report: seed, job count, wall-clock since
  /// construction, and one record per memoized non-baseline cell with
  /// its normalized metrics (cells whose baseline was never priced are
  /// skipped), plus a "quarantined" section. Deterministic: records are
  /// ordered by memo key.
  void writeJsonReport(std::ostream& os) const;

  /// Registers an extra top-level section for writeJsonReport: @p key
  /// becomes a top-level JSON field whose value is @p rendered_json
  /// (which must already be valid JSON). Benches with bench-specific
  /// structured results — the autotune report — use this so the shared
  /// host/prepare/cells schema stays untouched for every other bench.
  void addJsonSection(const std::string& key, std::string rendered_json);

  /// writeJsonReport to the WP_JSON path, if that variable is set.
  /// Benches call this once after printing their tables. An unwritable
  /// path is a fatal error (exit 1), not a silent omission.
  void emitJsonIfRequested() const;

  /// One-line human summary of the sweep so far — cells priced, memo
  /// hits, quarantined and store counts, guest instructions, host
  /// throughput (MIPS), wall-clock and job count. Benches print this to
  /// stderr (stderr, so the stdout tables stay byte-identical across
  /// job counts).
  void printSummary(std::ostream& os) const;

  /// Host-side counters/timers: this executor's "cells.computed" /
  /// "memo.hits" / "cells.from_store" / "cells.quarantined" /
  /// "cells.failed_attempts" plus the shared Runner phase timers.
  [[nodiscard]] MetricsRegistry& metrics() const { return metrics_; }
  /// True when WP_TRACE requested a JSONL event log.
  [[nodiscard]] bool tracing() const { return trace_ != nullptr; }
  /// The WP_STORE result store, or null when the store is not enabled.
  [[nodiscard]] const ResultStore* store() const { return store_.get(); }

 private:
  struct CellEntry;

  /// Finds-or-creates the memo entry and computes it exactly once
  /// (concurrent callers for the same key block until it is ready).
  /// The compute is supervised: store lookup first, then up to
  /// maxAttempts() tries, then quarantine. Never throws for a cell
  /// failure.
  CellEntry& ensureCell(const PreparedWorkload& p,
                        const cache::CacheGeometry& icache,
                        const SchemeSpec& spec);

  /// The supervised once-body of ensureCell.
  void computeCell(CellEntry& entry, const std::string& key,
                   const PreparedWorkload& p,
                   const cache::CacheGeometry& icache,
                   const SchemeSpec& spec);

  Runner runner_;
  mutable MetricsRegistry metrics_;
  CellSupervisor supervisor_;
  /// Optional shutdown latch consulted before each cell compute (see
  /// the constructor). Not owned; null = never interrupt.
  const ShutdownLatch* interrupt_latch_ = nullptr;
  /// Created before (and so destroyed after) the pool whose workers
  /// write to it. Null unless WP_TRACE is set.
  std::unique_ptr<TraceWriter> trace_;
  /// WP_STORE cross-run result store (null when not enabled). Created
  /// before the pool so workers can use it; destroyed after.
  std::unique_ptr<ResultStore> store_;
  ThreadPool pool_;
  std::vector<PreparedWorkload> prepared_;
  mutable std::mutex memo_mutex_;  ///< also guards const report reads
  /// Keyed by keyOf(); entries hold a once_flag, so they live behind a
  /// unique_ptr (once_flag is neither movable nor copyable).
  std::map<std::string, std::unique_ptr<CellEntry>> memo_;
  /// Extra writeJsonReport sections (addJsonSection), key → rendered
  /// JSON. Guarded by memo_mutex_ like the other report inputs.
  std::map<std::string, std::string> extra_json_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace wp::driver
