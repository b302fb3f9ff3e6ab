// Experiment driver: reproduces the paper's methodology end to end.
//
// Per workload (paper §5):
//   1. build the program,
//   2. link it in original order and profile it on the *small* input,
//   3. run the layout pass pipeline on the profile, once per registered
//      strategy (the paper's ordering plus the ablation/literature ones),
//   4. simulate the *large* input under each scheme on equally-configured
//      machines (baseline and way-memoization use the original binary;
//      way-placement uses its SchemeSpec's layout plus an area size),
//   5. price each run with the energy model and normalize to baseline.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/fetch_path.hpp"
#include "energy/energy_model.hpp"
#include "fault/fault.hpp"
#include "layout/strategy.hpp"
#include "profile/profiler.hpp"
#include "sim/scheduler.hpp"
#include "workloads/workload.hpp"

namespace wp::driver {

/// Which fetch scheme to run, with its knobs.
struct SchemeSpec {
  cache::Scheme scheme = cache::Scheme::kBaseline;
  u32 wp_area_bytes = 0;        ///< way-placement only
  bool intraline_skip = true;   ///< ablation knob (optimized schemes)
  bool wm_precise_invalidation = false;  ///< ablation knob (way-memo)
  u32 drowsy_window = 0;        ///< drowsy-line window (extension E4)
  /// Code layout: a strategy spec string — a registered name (canonical
  /// or alias, see layout::strategies()) or a parameterized
  /// `name{key=value,...}` spec (layout::resolveStrategy). The run
  /// simulates that spec's image; cell keys carry its canonical form.
  std::string layout = "original";
  /// Runtime fault injection (resilience studies); inert by default.
  fault::FaultSpec fault;

  // Co-run (multiprogramming) axis: when corun_quantum > 0 the cell is
  // a guest-scheduler co-run of this workload with `corun_partners`
  // (comma-separated prepared-workload names) time-sliced at that
  // quantum under `corun_tlb`. All three are cell-key material.
  u64 corun_quantum = 0;  ///< 0 = solo run (no scheduler)
  cache::TlbSwitchPolicy corun_tlb = cache::TlbSwitchPolicy::kFlush;
  std::string corun_partners;

  [[nodiscard]] bool corunEnabled() const { return corun_quantum > 0; }

  [[nodiscard]] static SchemeSpec baseline() { return {}; }
  /// The baseline a cell normalizes against: a solo cell's is the plain
  /// baseline; a co-run cell's is the *co-run* baseline — the same
  /// partners, quantum and TLB policy under the baseline scheme — so
  /// normalized metrics compare scheme against scheme, not scheme
  /// against an unrelated solo run.
  [[nodiscard]] static SchemeSpec baselineFor(const SchemeSpec& s) {
    SchemeSpec b;
    b.corun_quantum = s.corun_quantum;
    b.corun_tlb = s.corun_tlb;
    b.corun_partners = s.corun_partners;
    return b;
  }
  /// Way-placement cells honor WP_LAYOUT, so a sweep can be re-run under
  /// any registered ordering without recompiling; unset means the
  /// paper's ordering.
  [[nodiscard]] static SchemeSpec wayPlacement(u32 area_bytes) {
    SchemeSpec s;
    s.scheme = cache::Scheme::kWayPlacement;
    s.wp_area_bytes = area_bytes;
    s.layout = layout::strategyFromEnv();
    return s;
  }
  [[nodiscard]] static SchemeSpec wayMemoization() {
    SchemeSpec s;
    s.scheme = cache::Scheme::kWayMemoization;
    return s;
  }
  [[nodiscard]] static SchemeSpec wayPrediction() {
    SchemeSpec s;
    s.scheme = cache::Scheme::kWayPrediction;
    return s;
  }
};

/// Host wall-clock spent in the preparation phases of one workload —
/// the only record of preparation cost (the sweep executor sums these
/// for its report). Pure observability: none of these values feed back
/// into a result.
struct PreparePhases {
  double build_seconds = 0.0;    ///< workload construction + IR build
  double profile_seconds = 0.0;  ///< original link + training run
  double layout_seconds = 0.0;   ///< pass pipeline over every strategy
  [[nodiscard]] double total() const {
    return build_seconds + profile_seconds + layout_seconds;
  }
};

/// One priced simulation.
struct RunResult {
  sim::RunStats stats;
  energy::RunEnergy energy;
  /// Host cost of the simulate (machine setup + run) and price phases
  /// for this cell — the only record of it (the sweep executor sums
  /// these over the cells it computed). Observability only — never fed
  /// back into the simulated machine, so results are identical with or
  /// without anyone reading them. simulate_seconds is *thread CPU
  /// time*, not wall clock: it is the guest-MIPS denominator, and a
  /// wall span on an oversubscribed host (WP_JOBS above the core count)
  /// would charge the cell for time the scheduler gave its neighbours,
  /// making recordings incomparable across WP_JOBS settings.
  /// price_seconds is wall clock.
  double simulate_seconds = 0.0;
  double price_seconds = 0.0;
  /// Guest-instruction throughput of the simulation in millions of
  /// instructions per host second, or nullopt when the simulate span
  /// was too short to measure (a fast cell can round to 0 s — that is
  /// "not measurable", not 0 MIPS, and aggregates must exclude it
  /// rather than average a poisoned zero).
  [[nodiscard]] std::optional<double> guestMips() const {
    if (simulate_seconds <= 0.0) return std::nullopt;
    return static_cast<double>(stats.instructions) / simulate_seconds / 1e6;
  }
  /// Workload result bytes read back after the run — compared against
  /// Workload::expected and across fault classes by the resilience
  /// harness.
  std::vector<u8> output;
  /// What the fault injector did (all zero without an active FaultSpec).
  fault::InjectionStats injected;
  /// The layout that produced the simulated image (from its
  /// LayoutReport): canonical strategy name, chains formed, fall-through
  /// repairs the linker inserted.
  std::string layout_strategy;
  u64 layout_chains = 0;
  u64 layout_repairs = 0;
  /// Fraction of profiled dynamic instructions placed inside the
  /// (clamped) way-placement area. 0 for non-way-placement schemes and
  /// for unprofiled layouts.
  double wp_area_coverage = 0.0;
};

/// A workload made ready to simulate: profiled and laid out under every
/// registered strategy. Profiling is layout-independent, so one
/// prepared workload serves any (strategy, geometry, scheme) cell —
/// including parameterized specs, whose pipelines run lazily on first
/// use and are cached (the autotuner prices many specs against one
/// prepared workload).
struct PreparedWorkload {
  std::string name;
  std::unique_ptr<workloads::Workload> workload;
  ir::Module module;        ///< profile-annotated
  u64 seed = 0;             ///< the preparing Runner's experiment seed
  /// Pipeline output per registered strategy, keyed by canonical name.
  /// Strategies that need a profile hold the original layout's result
  /// when the training profile was unusable.
  std::map<std::string, layout::LayoutResult, std::less<>> layouts;
  u64 profile_instructions = 0;
  /// False when the training profile failed validation; profile-driven
  /// layouts then silently fall back to the original block order (a bad
  /// profile costs energy, never correctness or the whole sweep).
  bool profile_ok = true;
  std::string profile_warning;  ///< why, when !profile_ok
  PreparePhases phases;         ///< host wall-clock per prepare phase

  /// Pipeline result / image for @p spec (a registered name, alias, or
  /// parameterized `name{...}` spec). Registered-default specs read the
  /// eagerly prepared table; anything else is computed on first use
  /// into the tuned-layout cache (thread-safe: sweep workers price
  /// tuned cells concurrently). Profile-driven specs fall back to the
  /// original layout when the training profile was unusable. Throws
  /// SimError on an unresolvable spec.
  [[nodiscard]] const layout::LayoutResult& layoutFor(
      std::string_view spec) const;
  [[nodiscard]] const mem::Image& imageFor(std::string_view spec) const {
    return layoutFor(spec).image;
  }

 private:
  /// Lazily computed non-default layouts, keyed by canonical spec.
  /// node-stable (std::map), so returned references outlive the insert.
  mutable std::map<std::string, layout::LayoutResult, std::less<>>
      tuned_layouts_;
  mutable std::unique_ptr<std::mutex> tuned_mutex_ =
      std::make_unique<std::mutex>();
};

/// @p wp_area_bytes clamped to @p image's code pages: pages past the end
/// of code are never fetched, so the clamp is behavior-neutral, but it
/// keeps per-process limits (and resize storms) inside each image.
/// runGroup installs each member's clamped area; the sweep executor keys
/// the machines it simulates on it.
[[nodiscard]] u32 clampWpAreaToImage(u32 wp_area_bytes,
                                     const mem::Image& image);

/// Sets @p result's layout fields — the strategy, chains and fall-through
/// repairs of the layout @p spec selects on @p primary, and (way-placement
/// only) that layout's profiled coverage of the primary's clamped WP
/// area. runGroup stamps every result with it; the sweep executor
/// re-stamps a result it shares between layouts whose images are
/// byte-identical.
void stampLayout(RunResult& result, const PreparedWorkload& primary,
                 const SchemeSpec& spec);

/// Normalized headline metrics of a scheme run against its baseline.
struct Normalized {
  double icache_energy = 1.0;  ///< scheme / baseline I-cache energy
  double total_energy = 1.0;
  double delay = 1.0;          ///< cycles ratio
  double ed_product = 1.0;     ///< total_energy * delay
};

/// Normalizes @p scheme against @p baseline. A baseline with zero cycles
/// or zero priced energy is a harness bug, not a result — it fails a
/// WP_ENSURE naming @p workload (pass the workload name whenever you
/// have it so the message can say which run was broken).
[[nodiscard]] Normalized normalize(const RunResult& scheme,
                                   const RunResult& baseline,
                                   const std::string& workload = {});

/// Holds no mutable state, so one Runner serves any number of threads;
/// each call's host cost travels in its own PreparePhases or RunResult.
class Runner {
 public:
  /// @p seed is the experiment-wide RNG seed: it reaches workload input
  /// generation, profile corruption and every fault schedule, so a whole
  /// experiment replays from one logged number. Seed 0 reproduces the
  /// historical fixed inputs bit-for-bit.
  explicit Runner(energy::EnergyParams params = energy::EnergyParams{},
                  u64 seed = 0);

  [[nodiscard]] u64 seed() const { return seed_; }

  /// Steps 1-3 above. Profiling is cache-independent, so one prepared
  /// workload serves every geometry. @p profile_input selects the
  /// training input: the paper's methodology trains on kSmall; passing
  /// kLarge gives the oracle (self-profiled) layout for robustness
  /// studies. @p profile_fault optionally damages the collected profile
  /// before the layout pass sees it; an unusable profile is diagnosed
  /// (profile_ok/profile_warning) and the way-placed image falls back to
  /// the original layout instead of aborting.
  [[nodiscard]] PreparedWorkload prepare(
      const std::string& name,
      workloads::InputSize profile_input = workloads::InputSize::kSmall,
      fault::ProfileFault profile_fault = fault::ProfileFault::kNone) const;

  /// Step 4-5 for one scheme on one I-cache geometry: runGroup over
  /// the group of one. @p budget_hook, when non-null, is installed as
  /// the simulation's instruction-budget hook (the sweep supervisor's
  /// per-cell watchdog rides it); it is host-side only and cannot change
  /// a completed run's results.
  [[nodiscard]] RunResult run(const PreparedWorkload& prepared,
                              const cache::CacheGeometry& icache,
                              const SchemeSpec& spec,
                              workloads::InputSize input =
                                  workloads::InputSize::kLarge,
                              const sim::BudgetHook* budget_hook =
                                  nullptr) const;

  /// Per-process slice of a group run plus the process's output bytes,
  /// read back for equivalence checks: every process's hashes must
  /// match its solo run exactly.
  struct CoRunProcess : sim::ProcessRunStats {
    std::vector<u8> output;
  };
  /// Co-run observability beyond the combined RunResult.
  struct CoRunExtra {
    std::vector<CoRunProcess> processes;
    u64 context_switches = 0;
    u64 slices = 0;
  };

  /// Steps 4-5 for a co-run: runGroup for a spec that must have
  /// corun_quantum > 0.
  [[nodiscard]] RunResult runCoRun(
      const std::vector<const PreparedWorkload*>& group,
      const cache::CacheGeometry& icache, const SchemeSpec& spec,
      workloads::InputSize input = workloads::InputSize::kLarge,
      const sim::BudgetHook* budget_hook = nullptr,
      CoRunExtra* extra = nullptr) const;

  /// Steps 4-5 for any cell: every cell is a process group on one
  /// GuestScheduler (first member = the cell's primary), priced as one
  /// combined run. A solo spec takes exactly one workload and runs it
  /// as a single slice as long as the instruction budget; a co-run spec
  /// time-slices every member over one shared fetch path under its
  /// corun_quantum/corun_tlb. Each member's WP area is clamped to its
  /// own image. The RunResult's output is the members' outputs
  /// concatenated in group order (so digests cover every guest); its
  /// layout fields and WP coverage are the primary's. @p extra, when
  /// non-null, receives the per-process results and switch counts.
  /// Runtime fault injection attaches to the scheduler's fetch path and
  /// is rejected for co-run specs. runUnit of one machine.
  [[nodiscard]] RunResult runGroup(
      const std::vector<const PreparedWorkload*>& group,
      const cache::CacheGeometry& icache, const SchemeSpec& spec,
      workloads::InputSize input = workloads::InputSize::kLarge,
      const sim::BudgetHook* budget_hook = nullptr,
      CoRunExtra* extra = nullptr) const;

  /// One machine of a unit: an I-cache geometry and a scheme.
  struct UnitMachine {
    cache::CacheGeometry icache;
    SchemeSpec spec;
  };

  /// Steps 4-5 for a *unit*: machines that run @p group's one
  /// instruction stream — byte-identical images under every machine's
  /// layout and, for co-runs, one quantum — and so differ only in
  /// fetch-side fields (I-cache geometry, scheme, WP areas, intra-line
  /// skip, precise invalidation, drowsy window, co-run TLB policy).
  /// Host-side figures of one unit's pass, for its trace event; no
  /// result depends on them.
  struct UnitCosts {
    /// The unit's simulate CPU outside its machines' replays.
    double shared_seconds = 0.0;
    /// Instructions and batches the stream retired.
    u64 instructions = 0;
    u64 batches = 0;
    /// Stall windows, and the instructions timed in them, summed over
    /// the machines (GuestScheduler::windowStats).
    u64 stall_windows = 0;
    u64 window_instructions = 0;
    /// Batches priced from chunk histograms, summed over the machines
    /// (GuestScheduler::memoStats).
    u64 priced_batches = 0;
  };

  /// One functional pass feeds every machine's fetch path and timing
  /// (GuestScheduler::addMachine), so each result equals that
  /// machine's runGroup. The guest output is read once. A machine's
  /// simulate_seconds is the thread CPU of its own replay plus an equal
  /// share of the rest of the unit's simulate span, so the results sum
  /// to the unit's cost; @p costs, when non-null, receives that rest,
  /// the unit's stall-window counts and its priced batches.
  /// @p budget_hook rides the shared pass; @p extras, when non-null,
  /// receives one CoRunExtra per machine. Throws SimError when any
  /// machine's spec is invalid.
  [[nodiscard]] std::vector<RunResult> runUnit(
      const std::vector<const PreparedWorkload*>& group,
      const std::vector<UnitMachine>& machines,
      workloads::InputSize input = workloads::InputSize::kLarge,
      const sim::BudgetHook* budget_hook = nullptr,
      std::vector<CoRunExtra>* extras = nullptr,
      UnitCosts* costs = nullptr) const;

  /// The machine configuration of a cell before runGroup installs the
  /// clamped WP area and the budget hook (exposed so benches can print
  /// Table 1 and tests can inspect it).
  [[nodiscard]] sim::MachineConfig machineFor(
      const cache::CacheGeometry& icache, const SchemeSpec& spec) const;

  [[nodiscard]] const energy::EnergyModel& energyModel() const {
    return model_;
  }

 private:
  energy::EnergyModel model_;
  u64 seed_ = 0;
};

}  // namespace wp::driver
