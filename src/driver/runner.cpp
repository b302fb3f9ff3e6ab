#include "driver/runner.hpp"

#include <cstdio>

#include "mem/memory.hpp"
#include "support/ensure.hpp"
#include "support/metrics.hpp"
#include "workloads/common.hpp"

namespace wp::driver {

u32 clampWpAreaToImage(u32 wp_area_bytes, const mem::Image& image) {
  const u32 code_pages = static_cast<u32>(
      (image.code.size() + mem::kPageBytes - 1) / mem::kPageBytes);
  const u32 code_bytes = code_pages * mem::kPageBytes;
  return wp_area_bytes > code_bytes ? code_bytes : wp_area_bytes;
}

void stampLayout(RunResult& result, const PreparedWorkload& primary,
                 const SchemeSpec& spec) {
  const layout::LayoutResult& laid = primary.layoutFor(spec.layout);
  result.layout_strategy = laid.report.strategy;
  result.layout_chains = laid.report.chains;
  result.layout_repairs = laid.report.repairs;
  // Coverage against the *clamped* area — what the hardware will
  // actually probe single-way.
  result.wp_area_coverage =
      spec.scheme == cache::Scheme::kWayPlacement
          ? laid.report.coverage(
                clampWpAreaToImage(spec.wp_area_bytes, laid.image))
          : 0.0;
}

Normalized normalize(const RunResult& scheme, const RunResult& baseline,
                     const std::string& workload) {
  const std::string who = workload.empty() ? "<unnamed>" : workload;
  WP_ENSURE(baseline.stats.cycles > 0,
            "normalize: baseline run of workload '" + who +
                "' retired zero cycles — the baseline must actually run "
                "before schemes can be normalized against it");
  WP_ENSURE(baseline.energy.icacheTotal() > 0.0 && baseline.energy.total() > 0.0,
            "normalize: baseline run of workload '" + who +
                "' priced to zero energy — check the EnergyParams");
  Normalized n;
  n.icache_energy =
      scheme.energy.icacheTotal() / baseline.energy.icacheTotal();
  n.total_energy = scheme.energy.total() / baseline.energy.total();
  n.delay = static_cast<double>(scheme.stats.cycles) /
            static_cast<double>(baseline.stats.cycles);
  n.ed_product = n.total_energy * n.delay;
  return n;
}

Runner::Runner(energy::EnergyParams params, u64 seed)
    : model_(params), seed_(seed) {}

const layout::LayoutResult& PreparedWorkload::layoutFor(
    std::string_view spec_str) const {
  // resolveStrategy validates the spec and canonicalizes aliases and
  // param overrides, so every spelling of one configuration shares one
  // cache slot.
  const layout::StrategySpec spec = layout::resolveStrategy(spec_str);
  // A profile-driven layout without a usable profile falls back to the
  // original image — for tuned specs exactly like for registered ones
  // (a bad profile costs energy, never correctness).
  if (spec.needs_profile && !profile_ok) {
    const auto it = layouts.find("original");
    WP_ENSURE(it != layouts.end(),
              "workload '" + name + "' was prepared without layouts");
    return it->second;
  }
  const std::string key = spec.canonical();
  if (const auto it = layouts.find(key); it != layouts.end()) {
    return it->second;
  }
  // Parameterized spec: run the pipeline on first use. std::map nodes
  // are stable, so the reference survives later insertions.
  std::lock_guard<std::mutex> lock(*tuned_mutex_);
  if (const auto it = tuned_layouts_.find(key); it != tuned_layouts_.end()) {
    return it->second;
  }
  const auto [it, inserted] =
      tuned_layouts_.emplace(key, layout::runPipeline(module, spec, seed));
  return it->second;
}

PreparedWorkload Runner::prepare(const std::string& name,
                                 workloads::InputSize profile_input,
                                 fault::ProfileFault profile_fault) const {
  PreparedWorkload p;
  p.name = name;
  p.seed = seed_;
  // The seed is threaded into the workload instance itself (inputs, key
  // material, references) — there is no process-wide seed, so Runners
  // with different seeds can interleave or run on different threads.
  const Stopwatch build;
  p.workload = workloads::makeWorkload(name, seed_);
  p.module = p.workload->build();
  p.phases.build_seconds = build.seconds();

  // Profile the original-order binary on the training input.
  const Stopwatch profiling;
  mem::Image original = layout::runPipeline(p.module, "original").image;
  mem::Memory memory;
  original.loadInto(memory);
  p.workload->prepare(memory, profile_input);
  profile::ProfileResult prof = profile::profileImage(original, memory);

  if (profile_fault != fault::ProfileFault::kNone) {
    Rng rng(seed_ ^ 0x9e3779b97f4a7c15ULL ^
            static_cast<u64>(profile_fault) * 0xbf58476d1ce4e5b9ULL);
    fault::corruptProfile(prof, profile_fault, rng);
  }

  p.profile_instructions = prof.instructions;

  // A damaged (or just bad) profile must cost at most energy, never the
  // sweep: diagnose it and fall back to the original block order for
  // every profile-driven strategy.
  const auto problem = profile::validate(p.module, prof);
  if (problem) {
    p.profile_ok = false;
    p.profile_warning = *problem;
    std::fprintf(stderr,
                 "[wayplace] warning: workload '%s': training profile "
                 "unusable (%s); falling back to original layout\n",
                 name.c_str(), problem->c_str());
  } else {
    profile::annotate(p.module, prof);
  }
  p.phases.profile_seconds = profiling.seconds();

  // Run the pass pipeline once per registered strategy. The original
  // layout is recomputed after annotation so its report's spans carry
  // the profile (its image bytes do not depend on the weights).
  const Stopwatch laying_out;
  for (const layout::LayoutStrategy* s : layout::strategies()) {
    if (s->needs_profile && !p.profile_ok) continue;
    p.layouts.emplace(s->name, layout::runPipeline(p.module, *s, seed_));
  }
  if (!p.profile_ok) {
    const layout::LayoutResult& fallback = p.layouts.at("original");
    for (const layout::LayoutStrategy* s : layout::strategies()) {
      if (s->needs_profile) p.layouts.emplace(s->name, fallback);
    }
  }
  p.phases.layout_seconds = laying_out.seconds();
  return p;
}

sim::MachineConfig Runner::machineFor(const cache::CacheGeometry& icache,
                                      const SchemeSpec& spec) const {
  sim::MachineConfig m = sim::baselineMachine(spec.scheme, spec.wp_area_bytes);
  m.fetch.icache = icache;
  m.fetch.intraline_skip = spec.intraline_skip;
  m.fetch.wm_precise_invalidation = spec.wm_precise_invalidation;
  m.fetch.drowsy_window = spec.drowsy_window;
  return m;
}

RunResult Runner::run(const PreparedWorkload& prepared,
                      const cache::CacheGeometry& icache,
                      const SchemeSpec& spec, workloads::InputSize input,
                      const sim::BudgetHook* budget_hook) const {
  return runGroup({&prepared}, icache, spec, input, budget_hook);
}

RunResult Runner::runCoRun(const std::vector<const PreparedWorkload*>& group,
                           const cache::CacheGeometry& icache,
                           const SchemeSpec& spec, workloads::InputSize input,
                           const sim::BudgetHook* budget_hook,
                           CoRunExtra* extra) const {
  WP_ENSURE(spec.corunEnabled(),
            "runCoRun needs corun_quantum > 0 (use run() for solo cells)");
  return runGroup(group, icache, spec, input, budget_hook, extra);
}

RunResult Runner::runGroup(const std::vector<const PreparedWorkload*>& group,
                           const cache::CacheGeometry& icache,
                           const SchemeSpec& spec, workloads::InputSize input,
                           const sim::BudgetHook* budget_hook,
                           CoRunExtra* extra) const {
  std::vector<CoRunExtra> extras;
  std::vector<RunResult> results =
      runUnit(group, {{icache, spec}}, input, budget_hook,
              extra != nullptr ? &extras : nullptr);
  if (extra != nullptr) *extra = std::move(extras.front());
  return std::move(results.front());
}

namespace {

/// Throws SimError naming what makes @p spec an invalid cell of a
/// @p members -process group.
void validateSpec(const SchemeSpec& spec, std::size_t members) {
  WP_ENSURE(spec.corunEnabled() || members == 1,
            "a solo cell runs exactly one workload, not " +
                std::to_string(members));
  // Fault hooks observe per-fetch state of *one* run; wiring them to a
  // time-sliced fetch path is a separate study, so co-run cells reject
  // them instead of silently attributing injections across guests.
  WP_ENSURE(!spec.corunEnabled() || !spec.fault.runtimeEnabled(),
            "co-run cells do not support runtime fault injection");
  if (spec.scheme == cache::Scheme::kWayPlacement) {
    WP_ENSURE(spec.wp_area_bytes > 0,
              "SchemeSpec.wp_area_bytes must be non-zero for the "
              "way-placement scheme");
    WP_ENSURE(spec.wp_area_bytes % mem::kPageBytes == 0,
              "SchemeSpec.wp_area_bytes (" +
                  std::to_string(spec.wp_area_bytes) +
                  ") must be a multiple of the " +
                  std::to_string(mem::kPageBytes) + "-byte page size");
  }
}

bool sameImage(const mem::Image& a, const mem::Image& b) {
  return &a == &b || (a.entry == b.entry && a.code == b.code &&
                      a.data == b.data);
}

}  // namespace

std::vector<RunResult> Runner::runUnit(
    const std::vector<const PreparedWorkload*>& group,
    const std::vector<UnitMachine>& machines, workloads::InputSize input,
    const sim::BudgetHook* budget_hook, std::vector<CoRunExtra>* extras,
    UnitCosts* costs) const {
  WP_ENSURE(!group.empty(), "a cell needs at least one workload");
  for (const PreparedWorkload* pw : group) {
    WP_ENSURE(pw != nullptr, "null workload in a cell's group");
  }
  WP_ENSURE(!machines.empty(), "a unit needs at least one machine");
  const SchemeSpec& first = machines.front().spec;
  for (const UnitMachine& m : machines) {
    validateSpec(m.spec, group.size());
    WP_ENSURE(m.spec.corun_quantum == first.corun_quantum,
              "the machines of a unit share one co-run quantum");
    for (const PreparedWorkload* pw : group) {
      WP_ENSURE(sameImage(pw->imageFor(m.spec.layout),
                          pw->imageFor(first.layout)),
                "the machines of a unit run byte-identical images");
    }
  }

  // simulate_seconds — the guest-MIPS denominator — is *thread CPU
  // time*: on an oversubscribed host (WP_JOBS above the core count) a
  // wall-clock span charges the cell for time the scheduler spent
  // running its neighbours, deflating reported MIPS by up to the
  // oversubscription factor and making recordings incomparable across
  // WP_JOBS settings.
  const double simulate_cpu_start = threadCpuSeconds();

  // Per machine: each member's WP limit clamped to *its* code pages,
  // and the machine. The configured area is the primary's clamped one:
  // a fault injector restores it after a resize storm, and a co-run's
  // first switch installs every member's own limit anyway.
  std::vector<std::vector<u32>> wp_limits(machines.size());
  std::vector<sim::MachineConfig> configs;
  for (std::size_t m = 0; m < machines.size(); ++m) {
    const SchemeSpec& spec = machines[m].spec;
    for (const PreparedWorkload* pw : group) {
      wp_limits[m].push_back(
          clampWpAreaToImage(spec.wp_area_bytes, pw->imageFor(spec.layout)));
    }
    configs.push_back(machineFor(machines[m].icache, spec));
    configs.back().fetch.wp_area_bytes = wp_limits[m].front();
  }
  if (budget_hook != nullptr) configs.front().budget_hook = *budget_hook;

  // A solo cell is one slice as long as the instruction budget; only a
  // co-run spec's quantum and TLB policy reach the scheduler.
  const auto tlbPolicy = [](const SchemeSpec& spec) {
    return spec.corunEnabled() ? spec.corun_tlb
                               : cache::TlbSwitchPolicy::kFlush;
  };
  sim::SchedulerConfig sched_config;
  sched_config.quantum = first.corunEnabled()
                             ? first.corun_quantum
                             : configs.front().max_instructions;
  sched_config.tlb_policy = tlbPolicy(first);
  auto sched = std::make_unique<sim::GuestScheduler>(configs.front(),
                                                     sched_config);
  for (std::size_t i = 0; i < group.size(); ++i) {
    const u32 asid = sched->addProcess(
        group[i]->name, group[i]->imageFor(first.layout),
        wp_limits.front()[i]);
    group[i]->workload->prepare(sched->memoryOf(asid), input);
  }
  for (std::size_t m = 1; m < machines.size(); ++m) {
    sched->addMachine(configs[m], tlbPolicy(machines[m].spec), wp_limits[m]);
  }

  // One injector per faulted machine, on that machine's fetch path.
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors(
      machines.size());
  for (std::size_t m = 0; m < machines.size(); ++m) {
    if (!machines[m].spec.fault.runtimeEnabled()) continue;
    injectors[m] =
        std::make_unique<fault::FaultInjector>(machines[m].spec.fault, seed_);
    injectors[m]->attach(sched->fetchPath(static_cast<u32>(m)));
  }

  std::vector<sim::CoRunStats> co = sched->runMachines();
  const double simulate_seconds = threadCpuSeconds() - simulate_cpu_start;

  // The members' outputs, read once and concatenated in group order:
  // the stats digest (and so the store's verification) covers each
  // process's result bytes, not just the primary's.
  const Stopwatch reading;
  std::vector<std::vector<u8>> outputs;
  std::vector<u8> output;
  for (u32 i = 0; i < group.size(); ++i) {
    outputs.push_back(group[i]->workload->output(sched->memoryOf(i)));
    output.insert(output.end(), outputs.back().begin(), outputs.back().end());
  }
  const double read_seconds = reading.seconds();

  // Each machine's own replay, plus an equal share of everything else
  // the unit spent: setup and the functional pass.
  double replays = 0.0;
  for (u32 m = 0; m < machines.size(); ++m) replays += sched->replaySeconds(m);
  const double n = static_cast<double>(machines.size());
  const double shared = (simulate_seconds - replays) / n;
  if (costs != nullptr) {
    costs->shared_seconds = simulate_seconds - replays;
    costs->instructions = co.front().combined.instructions;
    costs->batches = sched->batches();
    for (u32 m = 0; m < machines.size(); ++m) {
      costs->stall_windows += sched->windowStats(m).windows;
      costs->window_instructions += sched->windowStats(m).instructions;
      costs->priced_batches += sched->memoStats(m).priced_batches;
    }
  }

  std::vector<RunResult> results(machines.size());
  for (std::size_t m = 0; m < machines.size(); ++m) {
    RunResult& result = results[m];
    stampLayout(result, *group.front(), machines[m].spec);
    result.stats = co[m].combined;
    result.simulate_seconds =
        sched->replaySeconds(static_cast<u32>(m)) + shared;
    const Stopwatch pricing;
    result.energy = sim::Processor::price(model_, configs[m], result.stats);
    result.output = output;
    result.price_seconds = pricing.seconds() + read_seconds / n;
    if (injectors[m]) result.injected = injectors[m]->stats();
    if (extras != nullptr) {
      CoRunExtra extra;
      for (u32 i = 0; i < group.size(); ++i) {
        extra.processes.push_back({std::move(co[m].processes[i]), outputs[i]});
      }
      extra.context_switches = co[m].context_switches;
      extra.slices = co[m].slices;
      extras->push_back(std::move(extra));
    }
  }
  return results;
}

}  // namespace wp::driver
