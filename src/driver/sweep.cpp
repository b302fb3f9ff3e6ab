#include "driver/sweep.hpp"

#include "driver/worker.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>

#include "support/ensure.hpp"
#include "support/fnv.hpp"
#include "support/number.hpp"
#include "support/stats.hpp"

namespace wp::driver {

unsigned jobsFromEnv() {
  const u64 jobs = envUnsigned("WP_JOBS", 0, 0, 4096, "worker count");
  return jobs == 0 ? ThreadPool::hardwareThreads()
                   : static_cast<unsigned>(jobs);
}

struct SweepExecutor::CellEntry {
  std::string workload;
  cache::CacheGeometry icache;
  SchemeSpec spec;
  std::once_flag once;
  /// Set after the once-body produced a usable result (computed or
  /// served from the store); writeJsonReport and aggregation skip
  /// entries without it. Mutually exclusive with `quarantined`.
  std::atomic<bool> ready{false};
  /// Set when every supervised attempt failed. The entry then carries
  /// `failure` instead of `result`, and stays quarantined for the
  /// executor's lifetime (a re-run gets fresh attempts because
  /// quarantined cells are never published to the store).
  std::atomic<bool> quarantined{false};
  RunResult result;
  /// Tagged error of the most recent failed attempt:
  /// "cell '<key>' (attempt i/n): <what>".
  std::string failure;
  /// Attempts spent on this cell (0 = served from the store without
  /// running anything).
  unsigned attempts = 0;
  /// Quarantined-without-running because the shutdown latch fired.
  bool interrupted = false;
  bool from_store = false;  ///< served from the WP_STORE result store
  /// Host wall-clock of the whole cell compute (simulate + price) and
  /// the pool worker that ran it (-1: computed on an external thread;
  /// -3: served from the result store — wall_seconds is then the
  /// original compute's).
  double wall_seconds = 0.0;
  int worker = -1;
};

SweepExecutor::SweepExecutor(std::vector<std::string> workload_names,
                             energy::EnergyParams params, u64 seed,
                             unsigned jobs, const SupervisorConfig* supervisor,
                             const ShutdownLatch* interrupt_latch)
    : runner_(params, seed),
      // Strict WP_* parsing runs before anything expensive: a bad knob
      // exits 1 here, long before the first workload is prepared.
      supervisor_(supervisor != nullptr ? *supervisor
                                        : SupervisorConfig::fromEnv()),
      interrupt_latch_(interrupt_latch),
      pool_(jobs == 0 ? jobsFromEnv() : jobs) {
  if (const char* trace_path = std::getenv("WP_TRACE");
      trace_path != nullptr && *trace_path != '\0') {
    trace_ = std::make_unique<TraceWriter>(trace_path);
    trace_->write(TraceEvent("sweep_start")
                      .num("seed", runner_.seed())
                      .num("jobs", pool_.threadCount())
                      .num("retries", supervisor_.retries)
                      .num("cell_timeout_ms", supervisor_.cell_timeout_ms)
                      .num("workloads",
                           static_cast<u64>(workload_names.size())));
  }
  if (auto store_config = ResultStore::fromEnv()) {
    store_ = std::make_unique<ResultStore>(*store_config, runner_.seed(),
                                           metrics_, trace_.get());
    if (!store_->degraded()) {
      std::fprintf(stderr, "[wayplace] result store: %s (lease timeout "
                   "%llu ms)\n",
                   store_->dir().c_str(),
                   static_cast<unsigned long long>(
                       store_config->lease_timeout_ms));
    }
    if (trace_) {
      trace_->write(TraceEvent("store_open")
                        .str("dir", store_->dir())
                        .num("lease_timeout_ms",
                             store_config->lease_timeout_ms)
                        .boolean("degraded", store_->degraded()));
    }
  }
  std::fprintf(stderr,
               "preparing %zu workloads (profile + layout) on %u "
               "thread(s)...\n",
               workload_names.size(), pool_.threadCount());
  prepared_.resize(workload_names.size());
  for (std::size_t i = 0; i < workload_names.size(); ++i) {
    pool_.submit([this, &workload_names, i] {
      prepared_[i] = runner_.prepare(workload_names[i]);
      if (trace_) {
        const PreparedWorkload& p = prepared_[i];
        trace_->write(TraceEvent("prepare")
                          .str("workload", p.name)
                          .num("worker", ThreadPool::currentWorkerIndex())
                          .num("build_seconds", p.phases.build_seconds)
                          .num("profile_seconds", p.phases.profile_seconds)
                          .num("layout_seconds", p.phases.layout_seconds)
                          .boolean("profile_ok", p.profile_ok));
      }
    });
  }
  pool_.wait();
}

SweepExecutor::~SweepExecutor() {
  if (trace_) {
    trace_->write(
        TraceEvent("sweep_end")
            .num("cells_computed", metrics_.counter("cells.computed").value())
            .num("cells_quarantined",
                 metrics_.counter("cells.quarantined").value())
            .num("memo_hits", metrics_.counter("memo.hits").value())
            .num("wall_seconds", start_.seconds()));
  }
}

std::string SweepExecutor::keyOf(const std::string& workload,
                                 const cache::CacheGeometry& g,
                                 const SchemeSpec& s) {
  // How the retire loop batches its fetches is deliberately absent:
  // batching is host-side only and never changes a result (the
  // equivalence tests enforce it), so a store recorded before any
  // batching change legitimately serves the runs after it.
  std::ostringstream os;
  os << workload << '/' << g.size_bytes << '/' << g.ways << '/'
     << g.line_bytes << '/' << static_cast<int>(s.scheme) << '/'
     << s.wp_area_bytes << '/' << s.intraline_skip << '/'
     << s.wm_precise_invalidation << '/' << s.drowsy_window << '/'
     // Canonicalized so an alias spelling (or any equivalent spelling
     // of a parameterized spec) memoizes to the same cell, and so every
     // tuned param value is key material — a store record can never
     // serve a differently-tuned cell. Default-param specs canonicalize
     // to the bare name, keeping pre-parameterization stores valid.
     << layout::resolveStrategy(s.layout).canonical();
  if (s.fault.runtimeEnabled()) {
    os << "/f" << s.fault.period << ':' << s.fault.seed << ':'
       << s.fault.flip_way_hint << s.fault.flip_tlb_wp_bit
       << s.fault.clear_tlb_wp_bits << s.fault.scramble_memo_links
       << s.fault.scramble_mru << s.fault.resize_storm;
  }
  if (s.fault.cellFaultEnabled()) {
    // Harness-level cell faults change a cell's *fate* (fail, heal,
    // quarantine), so they are distinct memo cells even though a healed
    // run's payload matches the clean one.
    os << "/c" << static_cast<int>(s.fault.cell_fault) << ':'
       << s.fault.cell_fault_failures;
  }
  if (s.corunEnabled()) {
    // Co-run cells are a different simulation even at the same scheme:
    // the quantum, the TLB switch policy and the partner set all change
    // the shared fetch path's history, so they are all key material.
    // Solo cells keep their exact pre-multiprog keys (no suffix), so
    // existing result stores stay valid.
    os << "/m" << s.corun_quantum << ':' << static_cast<int>(s.corun_tlb)
       << ':' << s.corun_partners;
  }
  return os.str();
}

void SweepExecutor::computeCell(CellEntry& entry, const std::string& key,
                                const PreparedWorkload& p,
                                const cache::CacheGeometry& icache,
                                const SchemeSpec& spec) {
  const int worker = ThreadPool::currentWorkerIndex();

  // Interrupt check before any work (and before touching the store, so
  // a draining bench never takes a lease it won't use): a latched
  // shutdown quarantines every not-yet-started cell quietly — no retry
  // ladder, no per-cell stderr line — so a SIGTERM'd sweep reaches its
  // flush-and-exit path in one pool drain instead of minutes later.
  if (interrupt_latch_ != nullptr && interrupt_latch_->requested()) {
    entry.failure = "cell '" + key +
                    "': not started — shutdown requested before compute";
    entry.interrupted = true;
    entry.quarantined.store(true, std::memory_order_release);
    if (trace_) {
      trace_->write(TraceEvent("cell_interrupted").str("key", key));
    }
    return;
  }

  // Every cell is a process group: the primary, then (for a co-run)
  // every corun_partners name resolved against the prepared suite. An
  // empty partner list is a one-process co-run; an empty name or an
  // unresolvable partner is a deterministic cell failure that rides the
  // normal retry/quarantine ladder with the key attached instead of
  // aborting the sweep. A solo cell's store record is named by its
  // image's bare digest (solo records predate co-runs); a co-run's folds
  // every member's, so it is tied to *all* the code the cell simulates.
  std::vector<const PreparedWorkload*> group{&p};
  std::string group_error;
  u64 image_digest = imageDigest(p.imageFor(spec.layout));
  if (spec.corunEnabled()) {
    const std::string& names = spec.corun_partners;
    for (std::size_t start = 0; !names.empty() && group_error.empty();) {
      const std::size_t comma = names.find(',', start);
      const std::string name = names.substr(start, comma - start);
      const auto partner = std::find_if(
          prepared_.begin(), prepared_.end(),
          [&](const PreparedWorkload& c) { return c.name == name; });
      if (name.empty()) {
        group_error = "empty co-run partner name in '" + names + "'";
      } else if (partner == prepared_.end()) {
        group_error = "co-run partner '" + name +
                      "' is not a prepared workload of this sweep";
      } else {
        group.push_back(&*partner);
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    image_digest = kFnvOffset;
    for (const PreparedWorkload* pw : group) {
      image_digest =
          fnv1aWord(image_digest, imageDigest(pw->imageFor(spec.layout)));
    }
  }

  // Result store first: it coordinates across *processes*, so even the
  // lookup participates in the lease protocol — on a miss this cell now
  // holds its compute lease (released on every exit path below).
  ResultStore::Lease lease;
  if (store_) {
    ResultStore::Outcome outcome = store_->open(key, image_digest);
    if (outcome.record) {
      entry.result = std::move(outcome.record->result);
      entry.wall_seconds = outcome.record->wall_seconds;
      entry.worker = -3;
      entry.from_store = true;
      entry.attempts = 0;
      metrics_.counter("cells.from_store").add();
      if (trace_) {
        trace_->write(TraceEvent("cell_from_store")
                          .str("key", key)
                          .num("worker", worker));
      }
      entry.ready.store(true, std::memory_order_release);
      return;
    }
    lease = std::move(outcome.lease);
  }

  const unsigned max_attempts = supervisor_.maxAttempts();
  const bool is_baseline = spec.scheme == cache::Scheme::kBaseline;
  const bool isolate = supervisor_.isolate;
  for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
    entry.attempts = attempt;
    try {
      // The whole attempt body — fault injection, watchdog, simulate,
      // price — so the isolated path runs exactly what the in-process
      // path runs, just inside a forked worker. Spec-scoped faults
      // first (unit tests target one cell), then the WP_CELL_FAULT
      // knob, which spares baselines so a persistent fault degrades
      // cells rather than erasing every normalization denominator.
      const auto attemptBody = [&]() -> RunResult {
        if (!group_error.empty()) throw SimError(group_error);
        if (spec.fault.cellFaultEnabled()) {
          fault::injectCellFault(spec.fault, attempt - 1);  // 0-based
        }
        if (!is_baseline) {
          fault::injectCellFault(supervisor_.cell_fault,
                                 supervisor_.cell_fault_failures, attempt - 1,
                                 "WP_CELL_FAULT");
        }
        const sim::BudgetHook watchdog = supervisor_.watchdogFor(key);
        return runner_.runGroup(group, icache, spec,
                                workloads::InputSize::kLarge,
                                watchdog.check ? &watchdog : nullptr);
      };
      if (trace_) {
        trace_->write(TraceEvent("cell_start")
                          .str("key", key)
                          .num("attempt", attempt)
                          .num("worker", worker)
                          .boolean("isolated", isolate));
      }
      const Stopwatch wall;
      if (isolate) {
        // Crash domain = this attempt of this cell. Every way the
        // worker can die comes back as a WorkerResult error, rethrown
        // here so crashes, hangs and SimErrors all ride the same
        // retry/quarantine ladder below. The result carries its own
        // host cost, so nothing else needs to come back.
        WorkerResult wr = runCellInWorker(
            key, image_digest, supervisor_.cell_timeout_ms, attemptBody);
        if (!wr.ok) throw SimError(wr.error);
        entry.result = std::move(wr.result);
        metrics_.counter("cells.isolated").add();
      } else {
        entry.result = attemptBody();
      }
      entry.wall_seconds = wall.seconds();
      entry.worker = worker;
      metrics_.counter("cells.computed").add();
      if (attempt > 1) metrics_.counter("cells.healed").add();
      if (trace_) {
        TraceEvent ev("cell_end");
        ev.str("key", key)
            .num("attempt", attempt)
            .num("worker", worker)
            .num("wall_seconds", entry.wall_seconds)
            .num("simulate_seconds", entry.result.simulate_seconds)
            .num("price_seconds", entry.result.price_seconds);
        // Omitted (not 0) when the simulate span rounded to 0 s.
        if (const auto mips = entry.result.guestMips()) {
          ev.num("guest_mips", *mips);
        }
        ev.num("instructions", entry.result.stats.instructions)
            .num("cycles", entry.result.stats.cycles)
            .str("layout", entry.result.layout_strategy)
            .num("layout_chains", entry.result.layout_chains)
            .num("layout_repairs", entry.result.layout_repairs)
            .num("wp_area_coverage", entry.result.wp_area_coverage);
        trace_->write(ev);
      }
      if (store_) {
        store_->put(lease, key, image_digest, entry.result,
                    entry.wall_seconds);
      }
      entry.ready.store(true, std::memory_order_release);
      return;
    } catch (const SimError& e) {
      // Satellite of the supervision layer: no SimError leaves a cell
      // without its full identity attached.
      entry.failure = "cell '" + key + "' (attempt " +
                      std::to_string(attempt) + "/" +
                      std::to_string(max_attempts) + "): " + e.what();
      metrics_.counter("cells.failed_attempts").add();
      if (trace_) {
        trace_->write(TraceEvent("cell_failure")
                          .str("key", key)
                          .num("attempt", attempt)
                          .num("worker", worker)
                          .str("error", e.what()));
      }
      if (attempt < max_attempts && trace_) {
        trace_->write(
            TraceEvent("cell_retry").str("key", key).num("attempt", attempt));
      }
    }
  }

  // Quarantine releases the lease (via Lease's destructor) without
  // publishing: another process gets a fresh claim at this cell, and a
  // re-run gets fresh attempts.
  entry.quarantined.store(true, std::memory_order_release);
  metrics_.counter("cells.quarantined").add();
  std::fprintf(stderr,
               "[wayplace] QUARANTINED cell '%s' after %u attempt(s): %s\n",
               key.c_str(), entry.attempts, entry.failure.c_str());
  if (trace_) {
    trace_->write(TraceEvent("cell_quarantined")
                      .str("key", key)
                      .num("attempts", entry.attempts)
                      .str("error", entry.failure));
  }
}

SweepExecutor::CellEntry& SweepExecutor::ensureCell(
    const PreparedWorkload& p, const cache::CacheGeometry& icache,
    const SchemeSpec& spec) {
  const std::string key = keyOf(p.name, icache, spec);
  CellEntry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(memo_mutex_);
    std::unique_ptr<CellEntry>& slot = memo_[key];
    if (!slot) {
      slot = std::make_unique<CellEntry>();
      slot->workload = p.name;
      slot->icache = icache;
      slot->spec = spec;
    }
    entry = slot.get();
  }
  // Exactly-once supervised compute; a second thread asking for the
  // same cell blocks here until the first settles the cell's fate
  // (ready or quarantined — the once-body itself never throws).
  bool settled_here = false;
  std::call_once(entry->once, [&] {
    computeCell(*entry, key, p, icache, spec);
    settled_here = true;
  });
  if (!settled_here) {
    // Either a true memo hit or a wait on another thread's compute —
    // both mean this request cost (almost) nothing.
    metrics_.counter("memo.hits").add();
    if (trace_) {
      trace_->write(TraceEvent("memo_hit").str("key", key).num(
          "worker", ThreadPool::currentWorkerIndex()));
    }
  }
  return *entry;
}

void SweepExecutor::runAll(const std::vector<Cell>& cells) {
  for (const PreparedWorkload& p : prepared_) {
    for (const Cell& cell : cells) {
      pool_.submit([this, &p, cell] {
        // The baseline first: normalize() needs it for every cell of
        // this geometry, and ensureCell dedups it across schemes. A
        // co-run cell normalizes against the *co-run* baseline (same
        // quantum/policy/partners, baseline scheme), so the comparison
        // isolates the scheme, not the multiprogramming.
        ensureCell(p, cell.icache, SchemeSpec::baselineFor(cell.spec));
        ensureCell(p, cell.icache, cell.spec);
      });
    }
  }
  pool_.wait();
}

const RunResult& SweepExecutor::run(const PreparedWorkload& p,
                                    const cache::CacheGeometry& icache,
                                    const SchemeSpec& spec) {
  CellEntry& entry = ensureCell(p, icache, spec);
  if (entry.quarantined.load(std::memory_order_acquire)) {
    // The cell key travels with the error: a caller that cannot handle
    // degradation at least reports exactly which (workload, geometry,
    // scheme) died, not a bare simulator message.
    throw SimError("quarantined " + entry.failure);
  }
  return entry.result;
}

SweepExecutor::CellView SweepExecutor::tryRun(
    const PreparedWorkload& p, const cache::CacheGeometry& icache,
    const SchemeSpec& spec) {
  CellEntry& entry = ensureCell(p, icache, spec);
  CellView view;
  view.attempts = entry.attempts;
  if (entry.quarantined.load(std::memory_order_acquire)) {
    view.quarantined = true;
    view.error = &entry.failure;
  } else {
    view.result = &entry.result;
  }
  return view;
}

double SweepExecutor::averageNormalized(
    const cache::CacheGeometry& icache, const SchemeSpec& spec,
    const std::function<double(const Normalized&)>& metric) {
  return averageNormalizedChecked(icache, spec, metric).mean;
}

SweepExecutor::SuiteAverage SweepExecutor::averageNormalizedChecked(
    const cache::CacheGeometry& icache, const SchemeSpec& spec,
    const std::function<double(const Normalized&)>& metric) {
  runAll({Cell{icache, spec}});
  // Aggregate serially in preparation order: the memo contents are
  // deterministic per key, so the mean is bit-identical at any job
  // count even though summation order matters in floating point.
  Accumulator acc;
  SuiteAverage out;
  for (const PreparedWorkload& p : prepared_) {
    const CellView base = tryRun(p, icache, SchemeSpec::baselineFor(spec));
    const CellView r = tryRun(p, icache, spec);
    if (base.quarantined || r.quarantined) {
      ++out.excluded;
      continue;
    }
    acc.add(metric(normalize(*r.result, *base.result, p.name)));
    ++out.included;
  }
  if (out.included > 0) out.mean = acc.mean();
  return out;
}

std::vector<SweepExecutor::QuarantinedCell> SweepExecutor::quarantined()
    const {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  std::vector<QuarantinedCell> out;
  for (const auto& [key, entry] : memo_) {
    if (!entry->quarantined.load(std::memory_order_acquire)) continue;
    out.push_back(QuarantinedCell{key, entry->failure, entry->attempts,
                                  entry->interrupted});
  }
  return out;  // map order: deterministic at any job count
}

struct SweepExecutor::HostTotals {
  u64 instructions = 0;
  double simulate_seconds = 0.0;  ///< thread CPU; unmeasurable cells add 0
  double price_seconds = 0.0;
  /// The throughput split: a fast cell whose simulate span rounds to
  /// 0 s carries no rate information, and folding its instructions over
  /// zero seconds would poison the quotient, so such cells are counted
  /// rather than averaged.
  u64 measurable_instructions = 0;
  u64 measurable_cells = 0;
  u64 unmeasurable_cells = 0;
  PreparePhases prepare;

  /// Guest MIPS over the measurable cells; nullopt when none was.
  [[nodiscard]] std::optional<double> guestMips() const {
    if (simulate_seconds <= 0.0) return std::nullopt;
    return static_cast<double>(measurable_instructions) / simulate_seconds /
           1e6;
  }
};

SweepExecutor::HostTotals SweepExecutor::hostTotals() const {
  HostTotals t;
  for (const auto& [key, entry] : memo_) {
    // A store-served cell cost this run a read, not a simulation.
    if (!entry->ready.load(std::memory_order_acquire) || entry->from_store) {
      continue;
    }
    const RunResult& r = entry->result;
    t.instructions += r.stats.instructions;
    t.simulate_seconds += r.simulate_seconds;
    t.price_seconds += r.price_seconds;
    if (r.simulate_seconds > 0.0) {
      t.measurable_instructions += r.stats.instructions;
      ++t.measurable_cells;
    } else {
      ++t.unmeasurable_cells;
    }
  }
  for (const PreparedWorkload& p : prepared_) {
    t.prepare.build_seconds += p.phases.build_seconds;
    t.prepare.profile_seconds += p.phases.profile_seconds;
    t.prepare.layout_seconds += p.phases.layout_seconds;
  }
  return t;
}

void SweepExecutor::writeJsonReport(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  const HostTotals totals = hostTotals();
  std::vector<std::string> prepare;
  for (const PreparedWorkload& p : prepared_) {
    prepare.push_back(JsonLine()
                          .str("workload", p.name)
                          .num("build_seconds", p.phases.build_seconds)
                          .num("profile_seconds", p.phases.profile_seconds)
                          .num("layout_seconds", p.phases.layout_seconds)
                          .num("profile_instructions", p.profile_instructions)
                          .boolean("profile_ok", p.profile_ok)
                          .render());
  }
  std::vector<std::string> quarantined;
  std::vector<std::string> cells;
  for (const auto& [key, entry] : memo_) {
    if (entry->quarantined.load(std::memory_order_acquire)) {
      quarantined.push_back(JsonLine()
                                .str("key", key)
                                .num("attempts", entry->attempts)
                                .boolean("interrupted", entry->interrupted)
                                .str("error", entry->failure)
                                .render());
    }
    if (!entry->ready.load(std::memory_order_acquire)) continue;
    const std::string base_key =
        keyOf(entry->workload, entry->icache,
              SchemeSpec::baselineFor(entry->spec));
    if (key == base_key) continue;  // baselines normalize to 1 by definition
    const auto base = memo_.find(base_key);
    if (base == memo_.end() ||
        !base->second->ready.load(std::memory_order_acquire)) {
      continue;  // scheme priced without its baseline: nothing to normalize
    }
    const Normalized n =
        normalize(entry->result, base->second->result, entry->workload);
    JsonLine cell;
    cell.str("workload", entry->workload)
        .num("icache_size_bytes", entry->icache.size_bytes)
        .num("ways", entry->icache.ways)
        .num("line_bytes", entry->icache.line_bytes)
        .str("scheme", cache::schemeName(entry->spec.scheme))
        .num("wp_area_bytes", entry->spec.wp_area_bytes)
        .boolean("intraline_skip", entry->spec.intraline_skip)
        .boolean("wm_precise_invalidation",
                 entry->spec.wm_precise_invalidation)
        .num("drowsy_window", entry->spec.drowsy_window)
        // The layout that actually ran (profile fallback makes this
        // "original" even when the spec asked for a profile-driven one).
        .str("layout", entry->result.layout_strategy)
        .num("layout_chains", entry->result.layout_chains)
        .num("layout_repairs", entry->result.layout_repairs)
        .num("wp_area_coverage", entry->result.wp_area_coverage)
        .boolean("fault", entry->spec.fault.runtimeEnabled());
    // Only co-run cells carry the multiprog fields, so solo reports
    // keep their exact schema.
    if (entry->spec.corunEnabled()) {
      cell.num("corun_quantum", entry->spec.corun_quantum)
          .str("corun_tlb", cache::tlbSwitchPolicyName(entry->spec.corun_tlb))
          .str("corun_partners", entry->spec.corun_partners);
    }
    cell.num("icache_energy", n.icache_energy)
        .num("total_energy", n.total_energy)
        .num("delay", n.delay)
        .num("ed_product", n.ed_product)
        .num("cycles", entry->result.stats.cycles)
        .num("instructions", entry->result.stats.instructions)
        .num("attempts", entry->attempts)
        .boolean("from_store", entry->from_store)
        .num("wall_seconds", entry->wall_seconds)
        .num("simulate_seconds", entry->result.simulate_seconds)
        .num("price_seconds", entry->result.price_seconds);
    if (const auto mips = entry->result.guestMips()) {
      cell.num("guest_mips", *mips);
    } else {
      cell.raw("guest_mips", "null");  // span rounded to 0 s: not measurable
    }
    cells.push_back(cell.num("worker", entry->worker).render());
  }

  const auto count = [this](const char* name) {
    return metrics_.counter(name).value();
  };
  JsonLine host;
  host.num("guest_instructions", totals.instructions)
      .num("simulate_seconds", totals.simulate_seconds);
  if (const auto mips = totals.guestMips()) {
    host.num("guest_mips", *mips);
  } else {
    host.raw("guest_mips", "null");
  }
  host.num("mips_measurable_cells", totals.measurable_cells)
      .num("mips_unmeasurable_cells", totals.unmeasurable_cells)
      .num("cells_computed", count("cells.computed"))
      .num("cells_from_store", count("cells.from_store"))
      .num("cells_isolated", count("cells.isolated"))
      .num("cells_healed", count("cells.healed"))
      .num("cells_quarantined", count("cells.quarantined"))
      .num("failed_attempts", count("cells.failed_attempts"))
      .num("memo_hits", count("memo.hits"))
      .raw("store",
           JsonLine()
               .boolean("enabled", store_ != nullptr)
               .boolean("degraded", store_ != nullptr && store_->degraded())
               .num("hits", count("store.hits"))
               .num("misses", count("store.misses"))
               .num("rejected", count("store.rejected"))
               .num("records_written", count("store.records_written"))
               .num("lease_waits", count("store.lease_waits"))
               .num("leases_reclaimed", count("store.leases_reclaimed"))
               .render())
      .raw("phase_seconds",
           JsonLine()
               .num("build", totals.prepare.build_seconds)
               .num("profile", totals.prepare.profile_seconds)
               .num("layout", totals.prepare.layout_seconds)
               .num("simulate", totals.simulate_seconds)
               .num("price", totals.price_seconds)
               .render());

  // One top-level key per line and one cell per line: the golden checks
  // read the report line by line.
  JsonLine report(2);
  report.num("seed", runner_.seed())
      .num("jobs", pool_.threadCount())
      .num("wall_seconds", start_.seconds())
      .num("workloads", prepared_.size())
      .raw("host", host.render())
      .raw("prepare", jsonList(prepare, 4))
      .raw("quarantined", quarantined.empty() ? "[]" : jsonList(quarantined, 4))
      .raw("cells", jsonList(cells, 4));
  // Bench-registered extra sections (deterministic: map order), e.g.
  // the autotune report. Values are pre-rendered JSON.
  for (const auto& [key, value] : extra_json_) report.raw(key, value);
  os << report.render() << "\n";
}

void SweepExecutor::addJsonSection(const std::string& key,
                                   std::string rendered_json) {
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  extra_json_[key] = std::move(rendered_json);
}

void SweepExecutor::emitJsonIfRequested() const {
  const char* path = std::getenv("WP_JSON");
  if (path == nullptr || *path == '\0') return;
  // A requested report that silently vanishes is a harness correctness
  // bug: fail loudly on open *and* on write/close, matching the strict
  // WP_* environment parsing policy (exit 1 with a message, no partial
  // artifact pretending to be a result).
  errno = 0;
  std::ofstream out(path);
  if (!out.good()) dieOnIoError("WP_JSON", path, "cannot open report file");
  writeJsonReport(out);
  out.flush();
  if (!out.good()) dieOnIoError("WP_JSON", path, "write failed on");
  if (trace_) trace_->write(TraceEvent("json_report").str("path", path));
  std::fprintf(stderr, "wrote JSON report to %s\n", path);
}

void SweepExecutor::printSummary(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  const HostTotals totals = hostTotals();
  // "n/a", not 0.0: an unmeasurably short simulate span has no rate.
  char mips[32] = "n/a MIPS";
  if (const auto rate = totals.guestMips()) {
    std::snprintf(mips, sizeof mips, "%.1f MIPS", *rate);
  }
  const u64 quar = metrics_.counter("cells.quarantined").value();
  char extras[256] = "";
  std::size_t extras_len = 0;
  if (quar > 0) {
    extras_len = static_cast<std::size_t>(
        std::snprintf(extras, sizeof extras, ", %llu quarantined",
                      static_cast<unsigned long long>(quar)));
  }
  if (store_) {
    // store.hits/store.misses/store.rejected: the warm-store smoke
    // greps this summary, so the three counters always print together.
    std::snprintf(extras + extras_len, sizeof extras - extras_len,
                  ", store %llu hit(s)/%llu miss(es)/%llu rejected%s",
                  static_cast<unsigned long long>(
                      metrics_.counter("store.hits").value()),
                  static_cast<unsigned long long>(
                      metrics_.counter("store.misses").value()),
                  static_cast<unsigned long long>(
                      metrics_.counter("store.rejected").value()),
                  store_->degraded() ? " [DEGRADED]" : "");
  }
  char line[640];
  std::snprintf(line, sizeof line,
                "[wayplace] sweep: %zu workloads, %llu cells priced "
                "(+%llu memo hits%s), %.1fM guest insts, simulate %.2fs host "
                "(%s), wall %.2fs, jobs %u%s\n",
                prepared_.size(),
                static_cast<unsigned long long>(
                    metrics_.counter("cells.computed").value()),
                static_cast<unsigned long long>(
                    metrics_.counter("memo.hits").value()),
                extras, static_cast<double>(totals.instructions) / 1e6,
                totals.simulate_seconds, mips, start_.seconds(),
                pool_.threadCount(),
                trace_ ? (", trace: " + trace_->path()).c_str() : "");
  os << line;
}

}  // namespace wp::driver
