#include "driver/sweep.hpp"

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

/// One requested cell: the unit of report rows, quarantine keys, store
/// records and service replies.
struct SweepExecutor::CellEntry {
  std::string workload;
  cache::CacheGeometry icache;
  SchemeSpec spec;
  /// Settled exactly once: claimCell hands the claim to one thread, and
  /// requesters of a claimed cell wait on cell_cv_. Guarded by
  /// memo_mutex_.
  enum class State { kEmpty, kClaimed, kSettled };
  State state = State::kEmpty;
  /// Set after settling produced a usable result (from the store or
  /// from the cell's machine); writeJsonReport and aggregation skip
  /// entries without it. Mutually exclusive with `quarantined`.
  std::atomic<bool> ready{false};
  /// Set when the cell's machine exhausted its attempts. The entry then
  /// carries `failure` instead of `result`, and stays quarantined for
  /// the executor's lifetime (a re-run gets fresh attempts because
  /// quarantined cells are never published to the store).
  std::atomic<bool> quarantined{false};
  /// The cell's result once ready: its machine's, shared, or `own`.
  const RunResult* result = nullptr;
  /// The cell's store record, or its machine's result re-stamped with
  /// this cell's layout fields (another layout, byte-identical image).
  RunResult own;
  /// Tagged error of the machine's final failed attempt, naming this
  /// cell: "cell '<key>' (attempt i/n): <what>".
  std::string failure;
  /// Attempts its machine spent (0 = served from the store, or from a
  /// machine a store record filled, without running anything).
  unsigned attempts = 0;
  /// Quarantined-without-running because the shutdown latch fired.
  bool interrupted = false;
  bool from_store = false;  ///< served from the WP_STORE result store
  /// Host wall-clock this request spent getting its result (for the
  /// cell that ran its machine, the simulation, or its machine's equal
  /// share of a unit's; a lookup for the cells sharing it) and the pool
  /// worker that settled it (-1: an external thread; -3: served from the
  /// result store — wall_seconds is then the original compute's).
  double wall_seconds = 0.0;
  int worker = -1;
};

/// One distinct simulated machine. Requested cells that differ only in
/// WP areas that clamp alike, or in layouts whose images are
/// byte-identical, share it.
struct SweepExecutor::Machine {
  enum class State { kEmpty, kRunning, kReady, kQuarantined };
  State state = State::kEmpty;  ///< guarded by memo_mutex_
  /// Once ready: `simulated`, or the result of the store-served cell
  /// that filled the machine.
  const RunResult* result = nullptr;
  RunResult simulated;
  bool from_store = false;  ///< filled from a cell's store record
  unsigned attempts = 0;    ///< attempts spent (0 = filled from the store)
  /// What the final failed attempt threw, once quarantined.
  std::string error;
  /// Wall-clock of its simulation: the ladder's, or an equal share of
  /// the unit's. The cell that settles the machine is charged this.
  double wall_seconds = 0.0;
};

struct SweepExecutor::MachineId {
  /// The primary, then every co-run partner that resolved.
  std::vector<const PreparedWorkload*> group;
  /// Why the partners do not resolve; the attempts then fail with it.
  std::string group_error;
  std::string key;
  /// Names the cell's store record: the primary's image digest for a
  /// solo cell, the fold over every member's for a co-run.
  u64 image_digest = 0;
  /// The unit a runAll batch runs the machine in: the machine key
  /// without its fetch-side fields, or the machine key itself for a
  /// machine that runs alone.
  std::string unit;
};

/// One request of a runAll batch.
struct SweepExecutor::Request {
  const PreparedWorkload* p;
  cache::CacheGeometry icache;
  SchemeSpec spec;
};

/// A machine a unit job claimed, with the first of its cells the job
/// settles (whose key names its trace events and watchdog errors).
struct SweepExecutor::UnitSlot {
  Machine* machine;
  const MachineId* id;
  const std::string* key;
  const Request* request;
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
      std::fprintf(stderr, "[wayplace] result store: %s\n",
                   store_->dir().c_str());
    }
    if (trace_) {
      trace_->write(TraceEvent("store_open")
                        .str("dir", store_->dir())
                        .boolean("degraded", store_->degraded()));
    }
  }
  std::fprintf(stderr,
               "preparing %zu workloads (profile + layout) on %u "
               "thread(s)...\n",
               workload_names.size(), pool_.threadCount());
  prepared_.resize(workload_names.size());
  std::vector<ThreadPool::Task> prepares;
  for (std::size_t i = 0; i < workload_names.size(); ++i) {
    prepares.push_back([this, &workload_names, i] {
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
  pool_.submitAll(std::move(prepares));
  pool_.wait();
}

SweepExecutor::~SweepExecutor() {
  if (trace_) {
    trace_->write(
        TraceEvent("sweep_end")
            .num("cells_computed", metrics_.counter("cells.computed").value())
            .num("machines_simulated",
                 metrics_.counter("machines.simulated").value())
            .num("cells_quarantined",
                 metrics_.counter("cells.quarantined").value())
            .num("memo_hits", metrics_.counter("memo.hits").value())
            .num("wall_seconds", start_.seconds()));
  }
}

namespace {

/// A memo key with the WP area and layout fields given as text: a cell
/// key holds the requested values, a machine key what the machine runs.
std::string keyWith(const std::string& workload, const cache::CacheGeometry& g,
                    const SchemeSpec& s, const std::string& area,
                    const std::string& layout) {
  // How the retire loop batches its fetches is deliberately absent:
  // batching is host-side only and never changes a result (the
  // equivalence tests enforce it), so a store recorded before any
  // batching change legitimately serves the runs after it.
  std::ostringstream os;
  os << workload << '/' << g.size_bytes << '/' << g.ways << '/'
     << g.line_bytes << '/' << static_cast<int>(s.scheme) << '/' << area
     << '/' << s.intraline_skip << '/' << s.wm_precise_invalidation << '/'
     << s.drowsy_window << '/' << layout;
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

bool sameLayout(const RunResult& a, const RunResult& b) {
  return a.layout_strategy == b.layout_strategy &&
         a.layout_chains == b.layout_chains &&
         a.layout_repairs == b.layout_repairs &&
         a.wp_area_coverage == b.wp_area_coverage;
}

/// The cell_end event of attempt @p attempt of machine-settling cell
/// @p key, which produced @p r in @p wall_seconds.
void traceCellEnd(TraceWriter& trace, const std::string& key,
                  unsigned attempt, int worker, double wall_seconds,
                  const RunResult& r) {
  TraceEvent ev("cell_end");
  ev.str("key", key)
      .num("attempt", attempt)
      .num("worker", worker)
      .num("wall_seconds", wall_seconds)
      .num("simulate_seconds", r.simulate_seconds)
      .num("price_seconds", r.price_seconds);
  // Omitted (not 0) when the simulate span rounded to 0 s.
  if (const auto mips = r.guestMips()) ev.num("guest_mips", *mips);
  ev.num("instructions", r.stats.instructions)
      .num("cycles", r.stats.cycles)
      .str("layout", r.layout_strategy)
      .num("layout_chains", r.layout_chains)
      .num("layout_repairs", r.layout_repairs)
      .num("wp_area_coverage", r.wp_area_coverage);
  trace.write(ev);
}

}  // namespace

std::string SweepExecutor::keyOf(const std::string& workload,
                                 const cache::CacheGeometry& g,
                                 const SchemeSpec& s) {
  // The layout is canonicalized so an alias spelling (or any equivalent
  // spelling of a parameterized spec) memoizes to the same cell, and so
  // every tuned param value is key material — a store record can never
  // serve a differently-tuned cell. Default-param specs canonicalize to
  // the bare name, keeping pre-parameterization stores valid.
  return keyWith(workload, g, s, std::to_string(s.wp_area_bytes),
                 layout::resolveStrategy(s.layout).canonical());
}

u64 SweepExecutor::digestOf(const mem::Image& image) {
  std::lock_guard<std::mutex> lock(digest_mutex_);
  const auto [it, fresh] = digests_.try_emplace(&image, 0);
  if (fresh) it->second = imageDigest(image);
  return it->second;
}

SweepExecutor::MachineId SweepExecutor::machineOf(
    const std::string& cell_key, const PreparedWorkload& p,
    const cache::CacheGeometry& icache, const SchemeSpec& spec) {
  // Every cell is a process group: the primary, then (for a co-run)
  // every corun_partners name resolved against the prepared suite. An
  // empty partner list is a one-process co-run; an empty name or an
  // unresolvable partner is a deterministic cell failure that rides the
  // normal retry/quarantine ladder with the key attached instead of
  // aborting the sweep.
  MachineId id;
  id.group.push_back(&p);
  if (spec.corunEnabled()) {
    const std::string& names = spec.corun_partners;
    for (std::size_t start = 0; !names.empty() && id.group_error.empty();) {
      const std::size_t comma = names.find(',', start);
      const std::string name = names.substr(start, comma - start);
      const auto partner = std::find_if(
          prepared_.begin(), prepared_.end(),
          [&](const PreparedWorkload& c) { return c.name == name; });
      if (name.empty()) {
        id.group_error = "empty co-run partner name in '" + names + "'";
      } else if (partner == prepared_.end()) {
        id.group_error = "co-run partner '" + name +
                         "' is not a prepared workload of this sweep";
      } else {
        id.group.push_back(&*partner);
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }

  // The machine key is the cell key with each member's clamped WP area
  // in place of the requested one and its image digest in place of the
  // layout name: everything else (geometry, scheme knobs, faults, the
  // co-run axis) stays key material. An area runGroup rejects keeps its
  // raw value, so it can never borrow a valid machine. A solo cell's
  // store record is named by its image's bare digest (solo records
  // predate co-runs); a co-run's folds every member's, so it is tied to
  // *all* the code the cell simulates.
  std::string areas;
  std::string digests;
  u64 folded = kFnvOffset;
  for (const PreparedWorkload* member : id.group) {
    const mem::Image& image = member->imageFor(spec.layout);
    const u64 digest = digestOf(image);
    folded = fnv1aWord(folded, digest);
    const u32 area = spec.wp_area_bytes % mem::kPageBytes == 0
                         ? clampWpAreaToImage(spec.wp_area_bytes, image)
                         : spec.wp_area_bytes;
    char hex[20];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    areas += (areas.empty() ? "" : ":") + std::to_string(area);
    digests += (digests.empty() ? "" : ":") + std::string(hex);
  }
  id.image_digest =
      spec.corunEnabled() ? folded : digestOf(p.imageFor(spec.layout));
  // A group that does not resolve has no machine to share: its attempts
  // fail alone, under the cell's own key.
  id.key = id.group_error.empty()
               ? keyWith(p.name, icache, spec, areas, digests)
               : cell_key;
  // The unit key keeps what the functional pass depends on: the group
  // and its images, and the co-run quantum. A machine with a runtime or
  // cell fault, or any machine while the watchdog or the harness cell
  // fault is armed, runs alone, so its attempts and deadline are its
  // own.
  const bool alone = !id.group_error.empty() || spec.fault.runtimeEnabled() ||
                     spec.fault.cellFaultEnabled() ||
                     supervisor_.cell_fault != fault::CellFault::kNone ||
                     supervisor_.cell_timeout_ms > 0;
  if (alone) {
    id.unit = id.key;
  } else {
    id.unit = p.name + '/' + digests;
    if (spec.corunEnabled()) {
      id.unit += "/m" + std::to_string(spec.corun_quantum) + ':' +
                 spec.corun_partners;
    }
  }
  return id;
}

bool SweepExecutor::simulate(Machine& machine, const MachineId& id,
                             const std::string& key,
                             const cache::CacheGeometry& icache,
                             const SchemeSpec& spec) {
  const int worker = ThreadPool::currentWorkerIndex();
  const unsigned max_attempts = supervisor_.maxAttempts();
  const bool is_baseline = spec.scheme == cache::Scheme::kBaseline;
  // One deadline for every attempt: a retry re-runs the same
  // deterministic simulation, so it gets only the time left. It is
  // armed before any fault, so a hang fault polls the cell's deadline.
  const sim::BudgetHook watchdog = supervisor_.watchdogFor(key);
  for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
    machine.attempts = attempt;
    try {
      if (trace_) {
        trace_->write(TraceEvent("cell_start")
                          .str("key", key)
                          .num("attempt", attempt)
                          .num("worker", worker));
      }
      const Stopwatch wall;
      if (!id.group_error.empty()) throw SimError(id.group_error);
      // Spec-scoped faults first (unit tests target one cell), then the
      // WP_CELL_FAULT knob, which spares baselines so a persistent
      // fault degrades cells rather than erasing every normalization
      // denominator.
      if (spec.fault.cellFaultEnabled()) {
        fault::injectCellFault(spec.fault, attempt - 1,  // 0-based
                               watchdog.check);
      }
      if (!is_baseline) {
        fault::injectCellFault(supervisor_.cell_fault,
                               supervisor_.cell_fault_failures, attempt - 1,
                               "WP_CELL_FAULT", watchdog.check);
      }
      machine.simulated = runner_.runGroup(
          id.group, icache, spec, workloads::InputSize::kLarge,
          watchdog.check ? &watchdog : nullptr);
      machine.result = &machine.simulated;
      metrics_.counter("machines.simulated").add();
      if (attempt > 1) metrics_.counter("cells.healed").add();
      if (trace_) {
        traceCellEnd(*trace_, key, attempt, worker, wall.seconds(),
                     machine.simulated);
      }
      return true;
    } catch (const SimError& e) {
      machine.error = e.what();
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
  return false;
}

namespace {

/// Moves @p machine to @p state under @p mutex and wakes its waiters.
template <typename MachineT, typename StateT>
void settleMachineState(MachineT& machine, StateT state, std::mutex& mutex,
                        std::condition_variable& cv) {
  {
    std::lock_guard<std::mutex> lock(mutex);
    machine.state = state;
  }
  cv.notify_all();
}

}  // namespace

void SweepExecutor::simulateAlone(Machine& machine, const MachineId& id,
                                  const std::string& key,
                                  const cache::CacheGeometry& icache,
                                  const SchemeSpec& spec) {
  const Stopwatch wall;
  bool ready = false;
  try {
    ready = simulate(machine, id, key, icache, spec);
  } catch (...) {
    // Not a cell failure (those are SimErrors, settled by the ladder):
    // give the claim back so no requester waits forever, and rethrow.
    settleMachineState(machine, Machine::State::kEmpty, memo_mutex_,
                       machine_cv_);
    throw;
  }
  machine.wall_seconds = wall.seconds();
  if (ready) metrics_.counter("units.simulated").add();
  settleMachineState(
      machine, ready ? Machine::State::kReady : Machine::State::kQuarantined,
      memo_mutex_, machine_cv_);
}

SweepExecutor::Machine& SweepExecutor::ensureMachine(
    const MachineId& id, const std::string& key,
    const cache::CacheGeometry& icache, const SchemeSpec& spec) {
  Machine* machine = nullptr;
  bool claimed = false;
  {
    std::unique_lock<std::mutex> lock(memo_mutex_);
    std::unique_ptr<Machine>& slot = machines_[id.key];
    if (!slot) slot = std::make_unique<Machine>();
    machine = slot.get();
    machine_cv_.wait(lock, [machine] {
      return machine->state != Machine::State::kRunning;
    });
    claimed = machine->state == Machine::State::kEmpty;
    if (claimed) machine->state = Machine::State::kRunning;
  }
  if (!claimed) {
    if (trace_) {
      trace_->write(TraceEvent("machine_hit")
                        .str("key", key)
                        .str("machine", id.key)
                        .num("worker", ThreadPool::currentWorkerIndex()));
    }
    return *machine;
  }
  simulateAlone(*machine, id, key, icache, spec);
  return *machine;
}

void SweepExecutor::simulateUnit(const std::vector<UnitSlot>& slots) {
  if (slots.empty()) return;
  const auto alone = [this](const UnitSlot& u) {
    simulateAlone(*u.machine, *u.id, *u.key, u.request->icache,
                  u.request->spec);
  };
  if (slots.size() == 1) {
    alone(slots.front());
    return;
  }

  const int worker = ThreadPool::currentWorkerIndex();
  const u64 n = slots.size();
  if (trace_) {
    trace_->write(TraceEvent("unit_start")
                      .str("key", *slots.front().key)
                      .num("machines", n)
                      .num("worker", worker));
  }
  const Stopwatch wall;
  std::vector<Runner::UnitMachine> machines;
  for (const UnitSlot& u : slots) {
    machines.push_back({u.request->icache, u.request->spec});
  }
  std::vector<RunResult> results;
  Runner::UnitCosts costs;
  try {
    results = runner_.runUnit(slots.front().id->group, machines,
                              workloads::InputSize::kLarge, nullptr, nullptr,
                              &costs);
  } catch (const SimError& e) {
    // A unit's failure is not a cell attempt: it dissolves, and each of
    // its machines runs alone through the ladder, so attempts, retries
    // and quarantine are exactly a lone machine's.
    metrics_.counter("units.dissolved").add();
    if (trace_) {
      trace_->write(TraceEvent("unit_end")
                        .str("key", *slots.front().key)
                        .num("machines", n)
                        .num("worker", worker)
                        .boolean("dissolved", true)
                        .str("error", e.what()));
    }
    for (const UnitSlot& u : slots) alone(u);
    return;
  } catch (...) {
    for (const UnitSlot& u : slots) {
      settleMachineState(*u.machine, Machine::State::kEmpty, memo_mutex_,
                         machine_cv_);
    }
    throw;
  }
  // Each machine is charged an equal share of the unit's wall; the
  // first cell settling it reports that share.
  const double share = wall.seconds() / static_cast<double>(n);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Machine& machine = *slots[i].machine;
    machine.simulated = std::move(results[i]);
    machine.result = &machine.simulated;
    machine.attempts = 1;
    machine.wall_seconds = share;
    metrics_.counter("machines.simulated").add();
    if (trace_) {
      trace_->write(TraceEvent("cell_start")
                        .str("key", *slots[i].key)
                        .num("attempt", 1)
                        .num("worker", worker));
      traceCellEnd(*trace_, *slots[i].key, 1, worker, share,
                   machine.simulated);
    }
  }
  metrics_.counter("units.simulated").add();
  if (trace_) {
    trace_->write(TraceEvent("unit_end")
                      .str("key", *slots.front().key)
                      .num("machines", n)
                      .num("worker", worker)
                      .boolean("dissolved", false)
                      .num("wall_seconds", wall.seconds())
                      .num("producer_seconds", costs.shared_seconds)
                      .num("instructions", costs.instructions)
                      .num("batches", costs.batches)
                      .num("stall_windows", costs.stall_windows)
                      .num("window_instructions", costs.window_instructions)
                      .num("priced_batches", costs.priced_batches));
  }
  for (const UnitSlot& u : slots) {
    settleMachineState(*u.machine, Machine::State::kReady, memo_mutex_,
                       machine_cv_);
  }
}

bool SweepExecutor::settleEarly(CellEntry& entry, const std::string& key,
                                const PreparedWorkload& p,
                                const cache::CacheGeometry& icache,
                                const SchemeSpec& spec, bool batched,
                                MachineId& id) {
  const int worker = ThreadPool::currentWorkerIndex();

  // Interrupt check before any work, the store read included: a latched
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
    return true;
  }

  id = machineOf(key, p, icache, spec);
  // Only a runAll batch shares machines: it plans them from its cell
  // list, one job per unit, so within a batch which cell simulates and
  // which look it up is fixed before any thread runs. A lone request
  // keys its machine on its own cell, so its cost never hangs on
  // whether another request (a store read, or a compute on another
  // thread) reached the machine first.
  if (!batched) id.key = key;

  // The cell's own store record.
  if (!store_) return false;
  ResultStore::Outcome outcome = store_->open(key, id.image_digest);
  if (!outcome.record) return false;
  entry.own = std::move(outcome.record->result);
  entry.result = &entry.own;
  entry.wall_seconds = outcome.record->wall_seconds;
  entry.worker = -3;
  entry.from_store = true;
  entry.attempts = 0;
  metrics_.counter("cells.from_store").add();
  if (trace_) {
    trace_->write(
        TraceEvent("cell_from_store").str("key", key).num("worker", worker));
  }
  {
    // The record fills its machine too, unless the machine is already
    // claimed, so the cells sharing it need no simulation.
    std::lock_guard<std::mutex> lock(memo_mutex_);
    std::unique_ptr<Machine>& slot = machines_[id.key];
    if (!slot) slot = std::make_unique<Machine>();
    if (slot->state == Machine::State::kEmpty) {
      slot->result = &entry.own;
      slot->from_store = true;
      slot->state = Machine::State::kReady;
    }
  }
  entry.ready.store(true, std::memory_order_release);
  return true;
}

void SweepExecutor::settleFromMachine(CellEntry& entry, const std::string& key,
                                      const PreparedWorkload& p,
                                      const SchemeSpec& spec,
                                      const MachineId& id,
                                      const Machine& machine,
                                      double wall_seconds) {
  entry.attempts = machine.attempts;
  if (machine.result == nullptr) {
    // Quarantine publishes nothing, so a re-run gets fresh attempts.
    // Every cell of the machine is quarantined under its own key; the
    // attempts were spent once.
    entry.failure = "cell '" + key + "' (attempt " +
                    std::to_string(machine.attempts) + "/" +
                    std::to_string(supervisor_.maxAttempts()) +
                    "): " + machine.error;
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
    return;
  }
  // The machine's result carries the layout fields of the cell that
  // produced it; a cell whose layout differs (but whose image bytes do
  // not) gets a copy stamped with its own.
  RunResult fields;
  stampLayout(fields, p, spec);
  if (sameLayout(fields, *machine.result)) {
    entry.result = machine.result;
  } else {
    entry.own = *machine.result;
    stampLayout(entry.own, p, spec);
    entry.result = &entry.own;
  }
  entry.wall_seconds = wall_seconds;
  entry.worker = ThreadPool::currentWorkerIndex();
  metrics_.counter("cells.computed").add();
  if (store_) {
    store_->put({}, key, id.image_digest, *entry.result, entry.wall_seconds);
  }
  entry.ready.store(true, std::memory_order_release);
}

void SweepExecutor::computeCell(CellEntry& entry, const std::string& key,
                                const PreparedWorkload& p,
                                const cache::CacheGeometry& icache,
                                const SchemeSpec& spec, bool batched) {
  MachineId id;
  if (settleEarly(entry, key, p, icache, spec, batched, id)) return;
  const Stopwatch wall;
  const Machine& machine = ensureMachine(id, key, icache, spec);
  settleFromMachine(entry, key, p, spec, id, machine, wall.seconds());
}

SweepExecutor::Claim SweepExecutor::claimCell(
    const std::string& key, const PreparedWorkload& p,
    const cache::CacheGeometry& icache, const SchemeSpec& spec, bool wait,
    CellEntry*& entry) {
  std::unique_lock<std::mutex> lock(memo_mutex_);
  std::unique_ptr<CellEntry>& slot = memo_[key];
  if (!slot) {
    slot = std::make_unique<CellEntry>();
    slot->workload = p.name;
    slot->icache = icache;
    slot->spec = spec;
  }
  entry = slot.get();
  CellEntry* e = entry;
  if (wait) {
    cell_cv_.wait(lock,
                  [e] { return e->state != CellEntry::State::kClaimed; });
  }
  switch (e->state) {
    case CellEntry::State::kSettled:
      return Claim::kSettled;
    case CellEntry::State::kClaimed:
      return Claim::kBusy;
    case CellEntry::State::kEmpty:
      break;
  }
  e->state = CellEntry::State::kClaimed;
  return Claim::kClaimed;
}

void SweepExecutor::releaseCell(CellEntry& entry, bool settled) {
  {
    std::lock_guard<std::mutex> lock(memo_mutex_);
    entry.state =
        settled ? CellEntry::State::kSettled : CellEntry::State::kEmpty;
  }
  cell_cv_.notify_all();
}

void SweepExecutor::memoHit(const std::string& key) {
  // Either a true memo hit or a wait on another thread's compute — both
  // mean this request cost (almost) nothing.
  metrics_.counter("memo.hits").add();
  if (trace_) {
    trace_->write(TraceEvent("memo_hit").str("key", key).num(
        "worker", ThreadPool::currentWorkerIndex()));
  }
}

SweepExecutor::CellEntry& SweepExecutor::ensureCell(
    const PreparedWorkload& p, const cache::CacheGeometry& icache,
    const SchemeSpec& spec, bool batched) {
  const std::string key = keyOf(p.name, icache, spec);
  CellEntry* entry = nullptr;
  if (claimCell(key, p, icache, spec, /*wait=*/true, entry) ==
      Claim::kSettled) {
    memoHit(key);
    return *entry;
  }
  // Exactly-once settle: the once-body never throws for a cell failure;
  // anything else gives the claim back before it propagates.
  try {
    computeCell(*entry, key, p, icache, spec, batched);
  } catch (...) {
    releaseCell(*entry, false);
    throw;
  }
  releaseCell(*entry, true);
  return *entry;
}

void SweepExecutor::settleUnit(const std::vector<Request>& requests) {
  struct Pending {
    CellEntry* entry;
    const Request* request;
    std::string key;
    MachineId id;
  };
  std::vector<Pending> pending;
  std::vector<const Request*> deferred;
  std::vector<UnitSlot> slots;
  try {
    // Claim the unit's cells in request order and settle those that
    // need no simulation. A cell another thread is settling is waited
    // for only at the end, holding no claim, so two jobs can never wait
    // on each other's cells.
    pending.reserve(requests.size());
    for (const Request& r : requests) {
      std::string key = keyOf(r.p->name, r.icache, r.spec);
      CellEntry* entry = nullptr;
      const Claim claim =
          claimCell(key, *r.p, r.icache, r.spec, /*wait=*/false, entry);
      if (claim == Claim::kSettled) {
        memoHit(key);
        continue;
      }
      if (claim == Claim::kBusy) {
        deferred.push_back(&r);
        continue;
      }
      pending.push_back({entry, &r, std::move(key), MachineId{}});
      Pending& c = pending.back();
      if (settleEarly(*c.entry, c.key, *r.p, r.icache, r.spec,
                      /*batched=*/true, c.id)) {
        releaseCell(*c.entry, true);
        pending.pop_back();
      }
    }

    // Claim the unsettled machines, each for its first pending cell.
    {
      std::lock_guard<std::mutex> lock(memo_mutex_);
      for (const Pending& c : pending) {
        std::unique_ptr<Machine>& slot = machines_[c.id.key];
        if (!slot) slot = std::make_unique<Machine>();
        if (slot->state != Machine::State::kEmpty) continue;
        slot->state = Machine::State::kRunning;
        slots.push_back({slot.get(), &c.id, &c.key, c.request});
      }
    }
    simulateUnit(slots);

    // Settle the claimed cells in request order. The first cell of each
    // machine the unit ran reports the machine's wall; the rest looked
    // it up.
    for (Pending& c : pending) {
      const auto ran = std::find_if(
          slots.begin(), slots.end(),
          [&c](const UnitSlot& u) { return u.key == &c.key; });
      if (ran != slots.end()) {
        settleFromMachine(*c.entry, c.key, *c.request->p, c.request->spec,
                          c.id, *ran->machine, ran->machine->wall_seconds);
      } else {
        const Stopwatch wall;
        const Machine& machine =
            ensureMachine(c.id, c.key, c.request->icache, c.request->spec);
        settleFromMachine(*c.entry, c.key, *c.request->p, c.request->spec,
                          c.id, machine, wall.seconds());
      }
      releaseCell(*c.entry, true);
      c.entry = nullptr;
    }
  } catch (...) {
    for (const Pending& c : pending) {
      if (c.entry != nullptr) releaseCell(*c.entry, false);
    }
    throw;
  }

  for (const Request* r : deferred) {
    ensureCell(*r->p, r->icache, r->spec, /*batched=*/true);
  }
}

void SweepExecutor::runAll(const std::vector<Cell>& cells) {
  // One job per unit, settling that unit's requested cells in grid
  // order, so no pool thread waits on a sibling computing the same
  // machine, and a unit's machines share one functional pass. The
  // baseline is requested before each cell: normalize() needs it for
  // every cell of its geometry, and the memo dedups it across schemes.
  // A co-run cell normalizes against the *co-run* baseline (same
  // quantum/policy/partners, baseline scheme), so the comparison
  // isolates the scheme, not the multiprogramming. Jobs go to the pool
  // in first-request order.
  std::vector<std::vector<Request>> jobs;
  std::map<std::string, std::size_t> unit_jobs;
  for (const PreparedWorkload& p : prepared_) {
    for (const Cell& cell : cells) {
      for (const SchemeSpec& spec :
           {SchemeSpec::baselineFor(cell.spec), cell.spec}) {
        const MachineId id =
            machineOf(keyOf(p.name, cell.icache, spec), p, cell.icache, spec);
        const auto [unit, first] = unit_jobs.try_emplace(id.unit, jobs.size());
        if (first) jobs.emplace_back();
        jobs[unit->second].push_back({&p, cell.icache, spec});
      }
    }
  }
  std::vector<ThreadPool::Task> tasks;
  tasks.reserve(jobs.size());
  for (std::vector<Request>& job : jobs) {
    tasks.push_back(
        [this, requests = std::move(job)] { settleUnit(requests); });
  }
  pool_.submitAll(std::move(tasks));
  pool_.wait();
}

const RunResult& SweepExecutor::run(const PreparedWorkload& p,
                                    const cache::CacheGeometry& icache,
                                    const SchemeSpec& spec) {
  CellEntry& entry = ensureCell(p, icache, spec, /*batched=*/false);
  if (entry.quarantined.load(std::memory_order_acquire)) {
    // The cell key travels with the error: a caller that cannot handle
    // degradation at least reports exactly which (workload, geometry,
    // scheme) died, not a bare simulator message.
    throw SimError("quarantined " + entry.failure);
  }
  return *entry.result;
}

SweepExecutor::CellView SweepExecutor::tryRun(
    const PreparedWorkload& p, const cache::CacheGeometry& icache,
    const SchemeSpec& spec) {
  CellEntry& entry = ensureCell(p, icache, spec, /*batched=*/false);
  CellView view;
  view.attempts = entry.attempts;
  if (entry.quarantined.load(std::memory_order_acquire)) {
    view.quarantined = true;
    view.error = &entry.failure;
  } else {
    view.result = entry.result;
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
  // Each simulation once, however many cells share it; a store-filled
  // machine cost this run a read, not a simulation.
  for (const auto& [key, machine] : machines_) {
    if (machine->state != Machine::State::kReady || machine->from_store) {
      continue;
    }
    const RunResult& r = machine->simulated;
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
    const RunResult& r = *entry->result;
    const Normalized n = normalize(r, *base->second->result, entry->workload);
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
        .str("layout", r.layout_strategy)
        .num("layout_chains", r.layout_chains)
        .num("layout_repairs", r.layout_repairs)
        .num("wp_area_coverage", r.wp_area_coverage)
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
        .num("cycles", r.stats.cycles)
        .num("instructions", r.stats.instructions)
        .num("attempts", entry->attempts)
        .boolean("from_store", entry->from_store)
        .num("wall_seconds", entry->wall_seconds)
        .num("simulate_seconds", r.simulate_seconds)
        .num("price_seconds", r.price_seconds);
    if (const auto mips = r.guestMips()) {
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
      .num("machines_simulated", count("machines.simulated"))
      .num("units_simulated", count("units.simulated"))
      .num("units_dissolved", count("units.dissolved"))
      .num("cells_from_store", count("cells.from_store"))
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
                "[wayplace] sweep: %zu workloads, %llu cells priced on "
                "%llu machines simulated in %llu units (+%llu memo hits%s), "
                "%.1fM guest insts, simulate %.2fs host (%s), wall %.2fs, "
                "jobs %u%s\n",
                prepared_.size(),
                static_cast<unsigned long long>(
                    metrics_.counter("cells.computed").value()),
                static_cast<unsigned long long>(
                    metrics_.counter("machines.simulated").value()),
                static_cast<unsigned long long>(
                    metrics_.counter("units.simulated").value()),
                static_cast<unsigned long long>(
                    metrics_.counter("memo.hits").value()),
                extras, static_cast<double>(totals.instructions) / 1e6,
                totals.simulate_seconds, mips, start_.seconds(),
                pool_.threadCount(),
                trace_ ? (", trace: " + trace_->path()).c_str() : "");
  os << line;
}

}  // namespace wp::driver
