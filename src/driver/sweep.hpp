// Parallel sweep execution over (workload × geometry × scheme) grids.
//
// The figure benches all follow the same shape: prepare the suite once,
// then price many independent simulations and average normalized
// metrics. SweepExecutor owns that shape. Simulations fan out across a
// thread pool with one FIFO queue; every result is memoized under a
// deterministic cell key, and aggregation walks the prepared workloads
// in suite order reading from the memo — so a table's bytes are
// identical at any job count, and the baseline for each (workload,
// geometry) is priced exactly once no matter how many schemes share it.
//
// The memo has two levels. Requested cells, keyed by keyOf(), own the
// report rows, quarantine keys, store records and service replies. Each
// cell runAll prices points at a machine: the same key with every
// member's clamped WP area in place of the requested one and its image
// digest in place of the layout name. Such cells whose areas clamp
// alike, or whose layouts emit byte-identical images, share one
// simulation, in that batch or a later one; a cell of another layout
// gets the machine's result re-stamped with its own layout fields
// (stampLayout). A lone run/tryRun of a cell no batch priced is a
// machine of its own, so what one request costs never depends on which
// other request reached a machine first. Within a batch, the machines
// that run one instruction stream (same workload group, image digests
// and co-run quantum) form a *unit*: one pool job, one functional pass
// feeding every machine's fetch path and timing (Runner::runUnit).
// See DESIGN.md §10 and §11.
//
// Every cell runs *supervised* (see driver/supervisor.hpp): a cell that
// throws SimError is retried at once, and a cell that exhausts its
// attempts is quarantined — tagged with its full cell key, excluded
// from aggregation (SuiteAverage reports how many cells an average
// lost), rendered as QUAR by the benches, and surfaced through
// quarantined() so a bench can exit 3 (degraded-but-complete) instead
// of aborting the whole figure.
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
//   WP_RETRIES / WP_CELL_TIMEOUT_MS / WP_CELL_FAULT
//                 cell supervision policy — see driver/supervisor.hpp.
//                 Every attempt runs in this process: it is the one
//                 crash domain (DESIGN.md §10).
//   WP_STORE      directory of a persistent cross-run result store:
//                 cells whose stored record verifies (image digest +
//                 stats digest + seed) are served instead of simulated,
//                 and freshly computed cells are published atomically.
//                 It is also the crash-recovery path: a killed sweep
//                 re-run on the same store recomputes only the cells it
//                 never published and prints a byte-identical table.
//                 See driver/result_store.hpp.
//
// Instrumentation is host-side only: with or without WP_TRACE/WP_JSON/
// WP_STORE, at any WP_JOBS, the printed tables are byte-identical. Host
// cost has one set of books: every host aggregate (the report's host
// block and the stderr summary) is summed from the RunResults of the
// machines this executor simulated, each once, and the PreparePhases of
// the workloads it prepared.
#pragma once

#include <condition_variable>
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
  [[nodiscard]] const SupervisorConfig& supervisor() const {
    return supervisor_;
  }

  /// Prices every (prepared workload × cell) plus the implied baselines
  /// across the pool, one job per unit: the batch's machines that run
  /// one instruction stream share one functional pass. A machine an
  /// earlier batch settled is shared, not simulated again.
  /// Already-memoized cells cost nothing; benches call this up front
  /// with their whole grid so the pool stays saturated instead of
  /// draining at each table cell. Never throws for a failing cell:
  /// failures retry and then quarantine (inspect via tryRun /
  /// quarantined()).
  void runAll(const std::vector<Cell>& cells);

  /// Memoized result of one simulation; computed on the calling thread
  /// on a miss, as a machine of its own (only runAll shares machines).
  /// The reference stays valid for the executor's lifetime.
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

  /// One-line human summary of the sweep so far — cells priced, the
  /// machines simulated for them, memo hits, quarantined and store
  /// counts, guest instructions, host throughput (MIPS), wall-clock and
  /// job count. The instruction, simulate and MIPS figures are the
  /// report's host block. Benches
  /// print this to stderr (stderr, so the stdout tables stay
  /// byte-identical across job counts).
  void printSummary(std::ostream& os) const;

  /// Host-side event counters: "cells.computed" (requested cells priced
  /// without their own store record) / "machines.simulated" /
  /// "units.simulated" (functional passes that produced results: a
  /// shared unit, or one machine alone) / "units.dissolved" (shared
  /// units that threw, whose machines then ran alone) / "memo.hits" /
  /// "cells.from_store" / "cells.quarantined" / "cells.failed_attempts"
  /// (machine attempts), the store's and (under wp_serve) the
  /// service's.
  [[nodiscard]] MetricsRegistry& metrics() const { return metrics_; }
  /// True when WP_TRACE requested a JSONL event log.
  [[nodiscard]] bool tracing() const { return trace_ != nullptr; }
  /// The WP_STORE result store, or null when the store is not enabled.
  [[nodiscard]] const ResultStore* store() const { return store_.get(); }

 private:
  struct CellEntry;
  struct Machine;
  struct MachineId;
  struct Request;
  struct UnitSlot;

  /// How claimCell found the memo entry.
  enum class Claim {
    kClaimed,  ///< unsettled: this thread now settles it
    kSettled,  ///< already settled (a memo hit)
    kBusy,     ///< another thread is settling it (only when not waiting)
  };

  /// Finds-or-creates @p key's memo entry into @p entry and claims it
  /// if unsettled. With @p wait, a cell another thread is settling is
  /// waited for (never kBusy).
  Claim claimCell(const std::string& key, const PreparedWorkload& p,
                  const cache::CacheGeometry& icache, const SchemeSpec& spec,
                  bool wait, CellEntry*& entry);

  /// Marks a claimed cell settled (@p settled) or gives the claim back,
  /// and wakes its waiters.
  void releaseCell(CellEntry& entry, bool settled);

  /// Counts and traces a request answered by an already-settled cell.
  void memoHit(const std::string& key);

  /// Finds-or-creates the memo entry and settles it exactly once
  /// (concurrent callers for the same key block until it is settled).
  /// Never throws for a cell failure. @p batched: the request comes
  /// from a runAll job, so its cell may share a machine; a lone request
  /// (run/tryRun) settles its cell as a machine of its own.
  CellEntry& ensureCell(const PreparedWorkload& p,
                        const cache::CacheGeometry& icache,
                        const SchemeSpec& spec, bool batched);

  /// The settling body of ensureCell: the cell's own store record, else
  /// its machine (simulated here, alone, if nobody has yet), published
  /// under the cell's own key.
  void computeCell(CellEntry& entry, const std::string& key,
                   const PreparedWorkload& p,
                   const cache::CacheGeometry& icache,
                   const SchemeSpec& spec, bool batched);

  /// What settles a claimed cell without its machine: a latched
  /// shutdown (quarantined as interrupted) or the cell's own store
  /// record (which also fills its machine). Otherwise fills @p id with
  /// the cell's machine and returns false. @p batched as in ensureCell.
  bool settleEarly(CellEntry& entry, const std::string& key,
                   const PreparedWorkload& p,
                   const cache::CacheGeometry& icache, const SchemeSpec& spec,
                   bool batched, MachineId& id);

  /// Settles a claimed cell from its settled @p machine: quarantined
  /// with the machine's error, or its result (re-stamped when the
  /// cell's layout fields differ), published to the store.
  /// @p wall_seconds is what getting the result cost this request.
  void settleFromMachine(CellEntry& entry, const std::string& key,
                         const PreparedWorkload& p, const SchemeSpec& spec,
                         const MachineId& id, const Machine& machine,
                         double wall_seconds);

  /// A runAll job: settles @p requests, the batch's requests of one
  /// unit, in order. Cells that need no simulation settle first; the
  /// unsettled machines of the rest then share one functional pass.
  void settleUnit(const std::vector<Request>& requests);

  /// Runs the machines of @p slots, which this thread claimed: together
  /// when there are several (dissolving into lone runs if the unit
  /// throws), else alone. Settles every one of them.
  void simulateUnit(const std::vector<UnitSlot>& slots);

  /// The machine the requested cell @p cell_key runs: its process group,
  /// machine key and store image digest. Throws SimError when the
  /// cell's layout spec cannot be laid out.
  [[nodiscard]] MachineId machineOf(const std::string& cell_key,
                                    const PreparedWorkload& p,
                                    const cache::CacheGeometry& icache,
                                    const SchemeSpec& spec);

  /// imageDigest of @p image, computed on first use and then cached for
  /// the executor's lifetime.
  [[nodiscard]] u64 digestOf(const mem::Image& image);

  /// Finds-or-creates @p id's machine and returns it settled (ready or
  /// quarantined): a machine another thread is simulating is waited
  /// for, and an unsettled one is simulated here, alone, on behalf of
  /// the requested cell @p key.
  Machine& ensureMachine(const MachineId& id, const std::string& key,
                         const cache::CacheGeometry& icache,
                         const SchemeSpec& spec);

  /// Runs @p machine, claimed by this thread, alone through the ladder
  /// (a unit of one) and settles it.
  void simulateAlone(Machine& machine, const MachineId& id,
                     const std::string& key,
                     const cache::CacheGeometry& icache,
                     const SchemeSpec& spec);

  /// The supervised simulation of one machine: up to maxAttempts()
  /// tries. True once an attempt produced the machine's result.
  bool simulate(Machine& machine, const MachineId& id,
                const std::string& key, const cache::CacheGeometry& icache,
                const SchemeSpec& spec);

  /// Every host aggregate, summed from the computed cells' RunResults
  /// and the prepared workloads' PreparePhases. Call under memo_mutex_.
  struct HostTotals;
  [[nodiscard]] HostTotals hostTotals() const;

  Runner runner_;
  mutable MetricsRegistry metrics_;
  SupervisorConfig supervisor_;
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
  /// Requested cells, keyed by keyOf(); entries hold atomics, so they
  /// live behind a unique_ptr.
  std::map<std::string, std::unique_ptr<CellEntry>> memo_;
  /// Distinct simulated machines, keyed by machine key; each requested
  /// cell points at one. Guarded by memo_mutex_, like their states.
  std::map<std::string, std::unique_ptr<Machine>> machines_;
  /// Wakes requesters waiting on a machine another thread simulates.
  std::condition_variable machine_cv_;
  /// Wakes requesters waiting on a cell another thread settles.
  std::condition_variable cell_cv_;
  std::mutex digest_mutex_;
  /// imageDigest per prepared image, filled on first use (digestOf).
  std::map<const mem::Image*, u64> digests_;
  /// Extra writeJsonReport sections (addJsonSection), key → rendered
  /// JSON. Guarded by memo_mutex_ like the other report inputs.
  std::map<std::string, std::string> extra_json_;
  Stopwatch start_;
};

}  // namespace wp::driver
