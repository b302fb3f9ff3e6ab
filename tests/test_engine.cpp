// One-loop equivalence: batching and sharing are host optimisations,
// never a model change. The retire loop dispatches whole BlockCache runs
// through FetchPath::fetchLine, or one instruction per fetch when the
// closed form is inexact — and an attached fault hook is what makes it
// inexact. So the same machine runs twice here: with a no-op
// FetchFaultHook (the per-instruction reference, every retirement one
// FetchPath::fetch) and without (batched). Over the full workload suite
// the two must agree on the retired instruction stream, the data flow,
// the workload output and every RunStats counter (statsDigest also
// folds in the priced energy). The differential fuzz slice repeats the
// comparison on tiny, miss-heavy machines. The unit slice at the end
// checks the other sharing: machines that run one instruction stream
// share one functional pass (Runner::runUnit, GuestScheduler::addMachine),
// and each must still equal its own lone run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <thread>

#include "asmkit/builder.hpp"
#include "driver/checkpoint.hpp"
#include "driver/runner.hpp"
#include "isa/isa.hpp"
#include "layout/strategy.hpp"
#include "profile/profiler.hpp"
#include "workloads/workload.hpp"
#include "test_util.hpp"

namespace wp {
namespace {

/// Observes nothing; attaching it only forces one-instruction batches.
class NoOpHook : public cache::FetchFaultHook {
 public:
  void onFetch(cache::FetchPath&) override {}
};

/// Runs @p spec on @p p on a sim::Processor over the Runner's machine
/// (the unclamped WP area; Runner has no hook seam), with @p hook
/// attached when non-null.
driver::RunResult runOnProcessor(const driver::Runner& runner,
                                 const driver::PreparedWorkload& p,
                                 const driver::SchemeSpec& spec,
                                 cache::FetchFaultHook* hook) {
  const mem::Image& image = p.imageFor(spec.layout);
  mem::Memory memory;
  image.loadInto(memory);
  p.workload->prepare(memory, workloads::InputSize::kLarge);
  const sim::MachineConfig machine = runner.machineFor(kXScale, spec);
  sim::Processor proc(machine, image, memory);
  proc.fetchPath().attachFaultHook(hook);
  driver::RunResult r;
  r.stats = proc.run();
  r.energy = sim::Processor::price(runner.energyModel(), machine, r.stats);
  r.output = p.workload->output(memory);
  return r;
}

// ---------------------------------------------------------------------
// The property test: every workload in the suite, every scheme,
// identical results.

TEST(EngineEquivalence, AllWorkloadsIdenticalAcrossEngines) {
  driver::Runner runner;
  NoOpHook hook;

  // All four schemes: way placement exercises the richest fetch path
  // (hint, TLB WP bit, single-way lookups, intra-line skips), way
  // memoization the link/flash-clear machinery, way prediction the
  // per-set MRU batching, and the baseline the plain path. One
  // prepared workload is shared per name, so any divergence is the
  // batching's, not the build's.
  const driver::SchemeSpec specs[] = {
      driver::SchemeSpec::baseline(),
      driver::SchemeSpec::wayPlacement(16 * 1024),
      driver::SchemeSpec::wayMemoization(),
      driver::SchemeSpec::wayPrediction(),
  };
  for (const std::string& name : workloads::suiteNames()) {
    SCOPED_TRACE(name);
    const driver::PreparedWorkload p = runner.prepare(name);
    for (const driver::SchemeSpec& spec : specs) {
      SCOPED_TRACE(cache::schemeName(spec.scheme));
      const driver::RunResult interp = runOnProcessor(runner, p, spec, &hook);
      const driver::RunResult block = runOnProcessor(runner, p, spec, nullptr);
      EXPECT_EQ(interp.stats.retired_pc_hash, block.stats.retired_pc_hash);
      EXPECT_EQ(interp.stats.dataflow_hash, block.stats.dataflow_hash);
      EXPECT_EQ(interp.stats.instructions, block.stats.instructions);
      EXPECT_EQ(interp.stats.cycles, block.stats.cycles);
      EXPECT_EQ(interp.output, block.output);
      EXPECT_EQ(interp.output,
                p.workload->expected(workloads::InputSize::kLarge));
      // Full RunStats + priced energy, in one digest.
      EXPECT_EQ(driver::statsDigest(interp), driver::statsDigest(block));
    }
  }
}

// ---------------------------------------------------------------------
// Differential fuzz, fixed-seed tier-1 slice. At 32 KB/32-way this suite
// almost never misses, so the comparison above barely reaches the
// closed-form fetch's miss, fill, replacement and flash-clear branches.
// Here the same two runs meet on tiny machines (1-4 KB, 2-8 ways,
// 16-64 B lines) with WP areas on both sides of the image edge, solo and
// as two-process co-runs at seeded quanta under both TLB policies.

/// One fuzz guest: its original and way-placed images, and how to feed
/// it and read its result.
struct FuzzGuest {
  std::string name;
  mem::Image original;
  mem::Image placed;
  /// The suite workload behind the guest (run on its small input), or
  /// null for a random program, whose result is the word at "out".
  const workloads::Workload* workload = nullptr;

  [[nodiscard]] const mem::Image& image(cache::Scheme scheme) const {
    return scheme == cache::Scheme::kWayPlacement ? placed : original;
  }
  [[nodiscard]] std::vector<u8> output(const mem::Memory& memory) const {
    return workload != nullptr ? workload->output(memory)
                               : memory.readBlock(mem::kDataBase, 4);
  }
};

/// The guests and the Runner that prepared the workload ones.
struct FuzzSuite {
  driver::Runner runner;
  std::vector<driver::PreparedWorkload> prepared;
  std::vector<FuzzGuest> guests;
};

const FuzzSuite& fuzzSuite() {
  static const FuzzSuite suite = [] {
    FuzzSuite s;
    for (const char* name : {"crc", "bitcount", "sha"}) {
      s.prepared.push_back(s.runner.prepare(name));
    }
    for (const driver::PreparedWorkload& p : s.prepared) {
      s.guests.push_back({p.name, p.imageFor("original"),
                          p.imageFor("way_placement"), p.workload.get()});
    }
    for (const u64 seed : {3, 17, 29}) {
      ir::Module m = randomProgram(seed);
      FuzzGuest g{"random" + std::to_string(seed),
                  layout::layoutImage(m, "original"), {}, nullptr};
      mem::Memory memory;
      g.original.loadInto(memory);
      profile::annotate(m, profile::profileImage(g.original, memory));
      g.placed = layout::layoutImage(m, "way_placement");
      s.guests.push_back(std::move(g));
    }
    return s;
  }();
  return suite;
}

/// The machines of the slice, drawn from 1/2/4 KB x 2/4/8 ways x
/// 16/32/64 B lines.
std::vector<cache::CacheGeometry> fuzzGeometries(u64 seed, int count) {
  Rng rng(seed);
  std::vector<cache::CacheGeometry> out;
  for (int i = 0; i < count; ++i) {
    cache::CacheGeometry g;
    g.size_bytes = (1u << rng.below(3)) * 1024;
    g.ways = 2u << rng.below(3);
    g.line_bytes = 16u << rng.below(3);
    out.push_back(g);
  }
  return out;
}

/// WP area @p kind for @p image: 1 KB, one page short of the end of its
/// code (at least one page), or one page past it.
u32 fuzzWpArea(int kind, const mem::Image& image) {
  const u32 pages = static_cast<u32>(
      (image.code.size() + mem::kPageBytes - 1) / mem::kPageBytes);
  if (kind == 0) return mem::kPageBytes;
  if (kind == 1) return (std::max(pages, 2u) - 1) * mem::kPageBytes;
  return (pages + 1) * mem::kPageBytes;
}

struct FuzzRun {
  u64 digest = 0;  ///< statsDigest: every RunStats counter, energy, outputs
  std::vector<u8> output;
  std::vector<sim::ProcessRunStats> processes;
  u64 icache_misses = 0;
  u64 itlb_misses = 0;
  /// The machine's stall windows and its fetch-path memo (zero unless
  /// it shared its pass).
  sim::GuestScheduler::WindowStats windows;
  sim::GuestScheduler::MemoStats memo;
};

/// Runs @p group on one GuestScheduler over @p machine, each member with
/// its own WP area of @p area_kind; with a no-op fault hook attached when
/// @p reference (one FetchPath::fetch per retirement).
FuzzRun runFuzz(const driver::Runner& runner, sim::MachineConfig machine,
                const sim::SchedulerConfig& sched,
                const std::vector<const FuzzGuest*>& group, int area_kind,
                bool reference) {
  const cache::Scheme scheme = machine.fetch.scheme;
  const bool wp = scheme == cache::Scheme::kWayPlacement;
  if (wp) {
    machine.fetch.wp_area_bytes =
        fuzzWpArea(area_kind, group.front()->image(scheme));
  }
  sim::GuestScheduler s(machine, sched);
  for (const FuzzGuest* g : group) {
    const mem::Image& image = g->image(scheme);
    const u32 asid =
        s.addProcess(g->name, image, wp ? fuzzWpArea(area_kind, image) : 0);
    if (g->workload != nullptr) {
      g->workload->prepare(s.memoryOf(asid), workloads::InputSize::kSmall);
    }
  }
  NoOpHook hook;
  if (reference) s.fetchPath().attachFaultHook(&hook);
  sim::CoRunStats co = s.run();
  driver::RunResult r;
  r.stats = co.combined;
  r.energy = sim::Processor::price(runner.energyModel(), machine, r.stats);
  for (u32 i = 0; i < group.size(); ++i) {
    const std::vector<u8> out = group[i]->output(s.memoryOf(i));
    if (group[i]->workload != nullptr) {
      EXPECT_EQ(out, group[i]->workload->expected(workloads::InputSize::kSmall))
          << group[i]->name;
    }
    r.output.insert(r.output.end(), out.begin(), out.end());
  }
  return {driver::statsDigest(r), r.output, std::move(co.processes),
          r.stats.icache.misses, r.stats.itlb.misses, {}, {}};
}

/// The batched run and the per-instruction reference must agree on the
/// full digest, the outputs and every process's hashes and cycles.
/// Returns the reference run's I-cache misses.
u64 expectBatchedMatchesReference(const driver::Runner& runner,
                                   const sim::MachineConfig& machine,
                                   const sim::SchedulerConfig& sched,
                                   const std::vector<const FuzzGuest*>& group,
                                   int area_kind) {
  const FuzzRun ref = runFuzz(runner, machine, sched, group, area_kind, true);
  const FuzzRun batched =
      runFuzz(runner, machine, sched, group, area_kind, false);
  EXPECT_EQ(batched.digest, ref.digest);
  EXPECT_EQ(batched.output, ref.output);
  EXPECT_EQ(batched.processes.size(), ref.processes.size());
  if (batched.processes.size() != ref.processes.size()) return 0;
  for (std::size_t i = 0; i < ref.processes.size(); ++i) {
    SCOPED_TRACE(ref.processes[i].name);
    EXPECT_EQ(batched.processes[i].instructions, ref.processes[i].instructions);
    EXPECT_EQ(batched.processes[i].retired_pc_hash,
              ref.processes[i].retired_pc_hash);
    EXPECT_EQ(batched.processes[i].dataflow_hash,
              ref.processes[i].dataflow_hash);
    EXPECT_EQ(batched.processes[i].cycles, ref.processes[i].cycles);
  }
  return ref.icache_misses;
}

/// Machines per fuzz test, sized so the slice takes about 8 s.
constexpr int kFuzzSoloMachines = 6;
constexpr int kFuzzCoRunMachines = 8;

constexpr cache::Scheme kFuzzSchemes[] = {
    cache::Scheme::kBaseline, cache::Scheme::kWayPlacement,
    cache::Scheme::kWayMemoization, cache::Scheme::kWayPrediction};

/// The machine of one fuzz run: Table 1 around a tiny I-cache.
sim::MachineConfig fuzzMachine(const driver::Runner& runner,
                               const cache::CacheGeometry& g,
                               cache::Scheme scheme, bool intraline_skip) {
  driver::SchemeSpec spec;
  spec.scheme = scheme;
  spec.intraline_skip = intraline_skip;
  return runner.machineFor(g, spec);
}

TEST(EngineFuzz, SoloRunsIdenticalOnMissHeavyMachines) {
  const FuzzSuite& suite = fuzzSuite();
  // Runs that missed more often than their code has lines: the slice
  // must reach replacement, not only compulsory fills.
  int replacing_runs = 0;
  for (const cache::CacheGeometry& g :
       fuzzGeometries(0x5eed, kFuzzSoloMachines)) {
    SCOPED_TRACE(std::to_string(g.size_bytes) + " B/" +
                 std::to_string(g.ways) + "-way/" +
                 std::to_string(g.line_bytes) + " B lines");
    for (const FuzzGuest& guest : suite.guests) {
      SCOPED_TRACE(guest.name);
      for (const cache::Scheme scheme : kFuzzSchemes) {
        for (const bool skip : {true, false}) {
          SCOPED_TRACE(std::string(cache::schemeName(scheme)) +
                       (skip ? " skip" : " no-skip"));
          const sim::MachineConfig m =
              fuzzMachine(suite.runner, g, scheme, skip);
          sim::SchedulerConfig solo;
          solo.quantum = m.max_instructions;
          const int areas = scheme == cache::Scheme::kWayPlacement ? 3 : 1;
          const u64 code_lines =
              (guest.image(scheme).code.size() + g.line_bytes - 1) /
              g.line_bytes;
          for (int kind = 0; kind < areas; ++kind) {
            SCOPED_TRACE("area kind " + std::to_string(kind));
            const u64 misses = expectBatchedMatchesReference(
                suite.runner, m, solo, {&guest}, kind);
            if (misses > code_lines) ++replacing_runs;
          }
        }
      }
    }
  }
  EXPECT_GT(replacing_runs, 0);
}

TEST(EngineFuzz, CoRunsIdenticalOnMissHeavyMachines) {
  const FuzzSuite& suite = fuzzSuite();
  Rng rng(0xc0);
  for (const cache::CacheGeometry& g :
       fuzzGeometries(0xc0de, kFuzzCoRunMachines)) {
    SCOPED_TRACE(std::to_string(g.size_bytes) + " B/" +
                 std::to_string(g.ways) + "-way/" +
                 std::to_string(g.line_bytes) + " B lines");
    const std::size_t a = rng.below(suite.guests.size());
    const std::size_t b = (a + 1 + rng.below(suite.guests.size() - 1)) %
                          suite.guests.size();
    const std::vector<const FuzzGuest*> group = {&suite.guests[a],
                                                 &suite.guests[b]};
    sim::SchedulerConfig sched;
    sched.quantum = 1 + rng.below(4000);
    SCOPED_TRACE(group[0]->name + "+" + group[1]->name + " quantum " +
                 std::to_string(sched.quantum));
    for (const cache::TlbSwitchPolicy policy :
         {cache::TlbSwitchPolicy::kFlush, cache::TlbSwitchPolicy::kAsidTagged}) {
      sched.tlb_policy = policy;
      for (const cache::Scheme scheme : kFuzzSchemes) {
        SCOPED_TRACE(std::string(cache::tlbSwitchPolicyName(policy)) + " " +
                     cache::schemeName(scheme));
        const int kind = static_cast<int>(rng.below(3));
        expectBatchedMatchesReference(
            suite.runner, fuzzMachine(suite.runner, g, scheme, true), sched,
            group, kind);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Unit equivalence: one functional pass feeding many machines. A unit's
// machines differ only in fetch-side fields; each must produce exactly
// what it produces alone — every RunStats counter and the priced energy
// (statsDigest), the outputs, and each process's instructions, hashes
// and cycles.

/// The fig6 machines of one workload, plus a way-prediction, a no-skip
/// WP and a drowsy WP consumer.
std::vector<driver::Runner::UnitMachine> fig6Machines() {
  std::vector<driver::Runner::UnitMachine> machines;
  for (const u32 kb : {16u, 32u, 64u}) {
    for (const u32 ways : {8u, 16u, 32u}) {
      const cache::CacheGeometry g{kb * 1024, 32, ways};
      machines.push_back({g, driver::SchemeSpec::baseline()});
      machines.push_back({g, driver::SchemeSpec::wayMemoization()});
      for (const u32 area_kb : {16u, 8u, 4u, 2u, 1u}) {
        machines.push_back(
            {g, driver::SchemeSpec::wayPlacement(area_kb * 1024)});
      }
    }
  }
  machines.push_back({kXScale, driver::SchemeSpec::wayPrediction()});
  driver::SchemeSpec no_skip = driver::SchemeSpec::wayPlacement(16 * 1024);
  no_skip.intraline_skip = false;
  machines.push_back({kXScale, no_skip});
  driver::SchemeSpec drowsy = driver::SchemeSpec::wayPlacement(4 * 1024);
  drowsy.drowsy_window = 2048;
  machines.push_back({kXScale, drowsy});
  return machines;
}

/// "<size>/<ways>/<scheme>/<area>/<skip>/<drowsy>" of a unit machine.
std::string machineName(const driver::Runner::UnitMachine& m) {
  return std::to_string(m.icache.size_bytes) + "/" +
         std::to_string(m.icache.ways) + "/" +
         cache::schemeName(m.spec.scheme) + "/" +
         std::to_string(m.spec.wp_area_bytes) + "/" +
         std::to_string(m.spec.intraline_skip) + "/" +
         std::to_string(m.spec.drowsy_window);
}

TEST(UnitEquivalence, Fig6MachinesMatchTheirLoneRuns) {
  driver::Runner runner;
  std::vector<driver::PreparedWorkload> prepared;
  for (const char* name : {"crc", "bitcount", "sha"}) {
    prepared.push_back(runner.prepare(name));
  }
  // One unit per instruction stream: a workload's machines whose
  // layouts emit byte-identical images.
  struct Unit {
    const driver::PreparedWorkload* p;
    std::vector<driver::Runner::UnitMachine> machines;
    std::vector<driver::RunResult> shared;
    std::vector<driver::Runner::CoRunExtra> extras;
    std::vector<driver::RunResult> lone;
    std::vector<driver::Runner::CoRunExtra> lone_extras;
    driver::Runner::UnitCosts costs;
  };
  std::vector<Unit> units;
  for (const driver::PreparedWorkload& p : prepared) {
    std::map<u64, std::vector<driver::Runner::UnitMachine>> streams;
    for (const driver::Runner::UnitMachine& m : fig6Machines()) {
      streams[driver::imageDigest(p.imageFor(m.spec.layout))].push_back(m);
    }
    for (auto& [digest, machines] : streams) {
      const std::size_t n = machines.size();
      units.push_back({&p, std::move(machines), {}, {},
                       std::vector<driver::RunResult>(n),
                       std::vector<driver::Runner::CoRunExtra>(n), {}});
    }
  }
  // Every unit, then every machine's lone run, over a few threads.
  std::vector<std::function<void()>> tasks;
  for (Unit& u : units) {
    tasks.push_back([&runner, &u] {
      u.shared = runner.runUnit({u.p}, u.machines,
                                workloads::InputSize::kLarge, nullptr,
                                &u.extras, &u.costs);
    });
  }
  for (Unit& u : units) {
    for (std::size_t i = 0; i < u.machines.size(); ++i) {
      tasks.push_back([&runner, &u, i] {
        u.lone[i] = runner.runGroup({u.p}, u.machines[i].icache,
                                    u.machines[i].spec,
                                    workloads::InputSize::kLarge, nullptr,
                                    &u.lone_extras[i]);
      });
    }
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t k; (k = next++) < tasks.size();) tasks[k]();
    });
  }
  for (std::thread& t : threads) t.join();

  for (const Unit& u : units) {
    SCOPED_TRACE(u.p->name);
    ASSERT_EQ(u.shared.size(), u.machines.size());
    ASSERT_EQ(u.extras.size(), u.machines.size());
    for (std::size_t i = 0; i < u.machines.size(); ++i) {
      SCOPED_TRACE(machineName(u.machines[i]));
      EXPECT_EQ(driver::statsDigest(u.shared[i]),
                driver::statsDigest(u.lone[i]));
      EXPECT_EQ(u.shared[i].output, u.lone[i].output);
      const auto& a = u.extras[i].processes.at(0);
      const auto& b = u.lone_extras[i].processes.at(0);
      EXPECT_EQ(a.instructions, b.instructions);
      EXPECT_EQ(a.retired_pc_hash, b.retired_pc_hash);
      EXPECT_EQ(a.dataflow_hash, b.dataflow_hash);
      EXPECT_EQ(a.cycles, b.cycles);
      EXPECT_EQ(a.output, b.output);
    }
  }
  // The equivalence above means something only if the memo both priced
  // chunks from their histograms and replayed others in order to learn.
  // Every machine but the drowsy one memoizes, so fewer priced batches
  // than those machines' batches mean some chunks were replayed.
  u64 priced = 0;
  u64 batched = 0;
  for (const Unit& u : units) {
    priced += u.costs.priced_batches;
    for (const driver::Runner::UnitMachine& m : u.machines) {
      if (m.spec.drowsy_window == 0) batched += u.costs.batches;
    }
  }
  EXPECT_GT(priced, 0u);
  EXPECT_LT(priced, batched);
}

/// One machine of a fuzz unit.
struct FuzzMachine {
  sim::MachineConfig config;
  cache::TlbSwitchPolicy policy = cache::TlbSwitchPolicy::kFlush;
  bool hooked = false;  ///< a no-op fault hook: one fetch per retirement
};

/// Runs @p machines on @p group as one unit: every member runs its
/// image for @p image_scheme, with its WP area of @p area_kind on the
/// way-placement machines. One FuzzRun per machine.
std::vector<FuzzRun> runFuzzUnit(const driver::Runner& runner,
                                 std::vector<FuzzMachine> machines,
                                 u64 quantum,
                                 const std::vector<const FuzzGuest*>& group,
                                 cache::Scheme image_scheme, int area_kind) {
  std::vector<std::vector<u32>> areas(machines.size());
  for (std::size_t m = 0; m < machines.size(); ++m) {
    const bool wp =
        machines[m].config.fetch.scheme == cache::Scheme::kWayPlacement;
    for (const FuzzGuest* g : group) {
      areas[m].push_back(wp ? fuzzWpArea(area_kind, g->image(image_scheme))
                            : 0);
    }
    machines[m].config.fetch.wp_area_bytes = areas[m].front();
  }
  sim::SchedulerConfig sched;
  sched.quantum = quantum;
  sched.tlb_policy = machines.front().policy;
  sim::GuestScheduler s(machines.front().config, sched);
  for (std::size_t i = 0; i < group.size(); ++i) {
    const u32 asid = s.addProcess(group[i]->name,
                                  group[i]->image(image_scheme), areas[0][i]);
    if (group[i]->workload != nullptr) {
      group[i]->workload->prepare(s.memoryOf(asid),
                                  workloads::InputSize::kSmall);
    }
  }
  for (std::size_t m = 1; m < machines.size(); ++m) {
    s.addMachine(machines[m].config, machines[m].policy, areas[m]);
  }
  std::vector<NoOpHook> hooks(machines.size());
  for (std::size_t m = 0; m < machines.size(); ++m) {
    if (machines[m].hooked) {
      s.fetchPath(static_cast<u32>(m)).attachFaultHook(&hooks[m]);
    }
  }
  std::vector<sim::CoRunStats> co = s.runMachines();
  std::vector<u8> output;
  for (u32 i = 0; i < group.size(); ++i) {
    const std::vector<u8> out = group[i]->output(s.memoryOf(i));
    output.insert(output.end(), out.begin(), out.end());
  }
  std::vector<FuzzRun> runs;
  for (std::size_t m = 0; m < machines.size(); ++m) {
    driver::RunResult r;
    r.stats = co[m].combined;
    r.energy = sim::Processor::price(runner.energyModel(),
                                     machines[m].config, r.stats);
    r.output = output;
    runs.push_back({driver::statsDigest(r), output,
                    std::move(co[m].processes), r.stats.icache.misses,
                    r.stats.itlb.misses, s.windowStats(static_cast<u32>(m)),
                    s.memoStats(static_cast<u32>(m))});
  }
  return runs;
}

/// Every machine of the unit must equal its own lone run. @p unit_runs,
/// when non-null, receives the unit's runs.
void expectUnitMatchesLoneRuns(const driver::Runner& runner,
                               const std::vector<FuzzMachine>& machines,
                               u64 quantum,
                               const std::vector<const FuzzGuest*>& group,
                               cache::Scheme image_scheme, int area_kind,
                               std::vector<FuzzRun>* unit_runs = nullptr) {
  std::vector<FuzzRun> unit =
      runFuzzUnit(runner, machines, quantum, group, image_scheme, area_kind);
  ASSERT_EQ(unit.size(), machines.size());
  for (std::size_t m = 0; m < machines.size(); ++m) {
    SCOPED_TRACE("machine " + std::to_string(m) + " (" +
                 cache::schemeName(machines[m].config.fetch.scheme) + ")");
    const FuzzRun lone = runFuzzUnit(runner, {machines[m]}, quantum, group,
                                     image_scheme, area_kind)
                             .front();
    EXPECT_EQ(unit[m].digest, lone.digest);
    EXPECT_EQ(unit[m].output, lone.output);
    ASSERT_EQ(unit[m].processes.size(), lone.processes.size());
    for (std::size_t i = 0; i < lone.processes.size(); ++i) {
      SCOPED_TRACE(lone.processes[i].name);
      EXPECT_EQ(unit[m].processes[i].instructions,
                lone.processes[i].instructions);
      EXPECT_EQ(unit[m].processes[i].retired_pc_hash,
                lone.processes[i].retired_pc_hash);
      EXPECT_EQ(unit[m].processes[i].dataflow_hash,
                lone.processes[i].dataflow_hash);
      EXPECT_EQ(unit[m].processes[i].cycles, lone.processes[i].cycles);
    }
  }
  if (unit_runs != nullptr) *unit_runs = std::move(unit);
}

TEST(UnitEquivalence, FuzzSoloUnitsMatchLoneRuns) {
  const FuzzSuite& suite = fuzzSuite();
  Rng rng(0x0417);
  for (const cache::CacheGeometry& g : fuzzGeometries(0x5eed, 4)) {
    SCOPED_TRACE(std::to_string(g.size_bytes) + " B/" +
                 std::to_string(g.ways) + "-way/" +
                 std::to_string(g.line_bytes) + " B lines");
    for (const FuzzGuest& guest : suite.guests) {
      SCOPED_TRACE(guest.name);
      // All four schemes with and without the skip, plus a machine with
      // another line size (the batches follow the smallest line) and a
      // hooked one (one fetch per retirement) on the same pass.
      std::vector<FuzzMachine> machines;
      for (const cache::Scheme scheme : kFuzzSchemes) {
        for (const bool skip : {true, false}) {
          machines.push_back({fuzzMachine(suite.runner, g, scheme, skip)});
        }
      }
      cache::CacheGeometry other = g;
      other.line_bytes = g.line_bytes == 16 ? 64 : 16;
      machines.push_back(
          {fuzzMachine(suite.runner, other, cache::Scheme::kWayMemoization,
                       true)});
      machines.push_back(
          {fuzzMachine(suite.runner, g, cache::Scheme::kWayPlacement, true),
           cache::TlbSwitchPolicy::kFlush, true});
      const int kind = static_cast<int>(rng.below(3));
      SCOPED_TRACE("area kind " + std::to_string(kind));
      expectUnitMatchesLoneRuns(suite.runner, machines,
                                machines.front().config.max_instructions,
                                {&guest}, cache::Scheme::kWayPlacement, kind);
    }
  }
}

TEST(UnitEquivalence, FuzzCoRunUnitsMatchLoneRuns) {
  const FuzzSuite& suite = fuzzSuite();
  Rng rng(0xc1);
  for (const cache::CacheGeometry& g : fuzzGeometries(0xc0de, 6)) {
    SCOPED_TRACE(std::to_string(g.size_bytes) + " B/" +
                 std::to_string(g.ways) + "-way/" +
                 std::to_string(g.line_bytes) + " B lines");
    const std::size_t a = rng.below(suite.guests.size());
    const std::size_t b = (a + 1 + rng.below(suite.guests.size() - 1)) %
                          suite.guests.size();
    const std::vector<const FuzzGuest*> group = {&suite.guests[a],
                                                 &suite.guests[b]};
    const u64 quantum = 1 + rng.below(4000);
    SCOPED_TRACE(group[0]->name + "+" + group[1]->name + " quantum " +
                 std::to_string(quantum));
    // A flush consumer and an ASID consumer side by side, per scheme.
    std::vector<FuzzMachine> machines;
    for (const cache::Scheme scheme : kFuzzSchemes) {
      for (const cache::TlbSwitchPolicy policy :
           {cache::TlbSwitchPolicy::kFlush,
            cache::TlbSwitchPolicy::kAsidTagged}) {
        machines.push_back(
            {fuzzMachine(suite.runner, g, scheme, true), policy});
      }
    }
    const cache::Scheme image = rng.below(2) == 0
                                    ? cache::Scheme::kBaseline
                                    : cache::Scheme::kWayPlacement;
    const int kind = static_cast<int>(rng.below(3));
    expectUnitMatchesLoneRuns(suite.runner, machines, quantum, group, image,
                              kind);
  }
}

TEST(UnitEquivalence, MachinesOfOtherTimingLatenciesCannotSharePasses) {
  const FuzzSuite& suite = fuzzSuite();
  const FuzzGuest& guest = suite.guests.front();
  const sim::MachineConfig first = fuzzMachine(
      suite.runner, {2048, 32, 4}, cache::Scheme::kBaseline, true);
  // The shared half's reference scoreboards run on the first machine's
  // latencies, so every other machine must time with the same ones.
  const std::vector<u32 pipeline::TimingConfig::*> latencies = {
      &pipeline::TimingConfig::branch_mispredict_penalty,
      &pipeline::TimingConfig::load_use_latency,
      &pipeline::TimingConfig::mul_latency,
      &pipeline::TimingConfig::btb_entries};
  for (const auto field : latencies) {
    sim::SchedulerConfig sched;
    sched.quantum = first.max_instructions;
    sim::GuestScheduler s(first, sched);
    s.addProcess(guest.name, guest.original);
    sim::MachineConfig other = first;
    other.timing.*field *= 2;
    EXPECT_THROW(s.addMachine(other, cache::TlbSwitchPolicy::kFlush, {0}),
                 SimError);
    EXPECT_NO_THROW(s.addMachine(first, cache::TlbSwitchPolicy::kFlush, {0}));
  }
}

// Stall-dense units: a shared machine times only the windows after its
// fetch stalls, so these cases make stalls nearly as common as batches.

TEST(UnitEquivalence, SwitchEveryFewInstructionsCoRunUnitsMatchLoneRuns) {
  const FuzzSuite& suite = fuzzSuite();
  const std::vector<const FuzzGuest*> group = {&suite.guests[0],
                                               &suite.guests[4]};
  const cache::CacheGeometry g{2048, 32, 4};
  // Flush consumers of every scheme at quanta 1-16: a switch lands on
  // almost every batch and flushes the I-cache, so most batches start
  // with a miss. Plus a hooked consumer (one fetch per retirement, any
  // of which may stall) and a drowsy one (one-cycle wake-ups).
  std::vector<FuzzMachine> machines;
  for (const cache::Scheme scheme : kFuzzSchemes) {
    machines.push_back({fuzzMachine(suite.runner, g, scheme, true)});
  }
  machines.push_back(
      {fuzzMachine(suite.runner, g, cache::Scheme::kWayMemoization, true),
       cache::TlbSwitchPolicy::kFlush, true});
  FuzzMachine drowsy{
      fuzzMachine(suite.runner, g, cache::Scheme::kWayPlacement, true)};
  drowsy.config.fetch.drowsy_window = 32;
  machines.push_back(drowsy);
  for (u64 quantum = 1; quantum <= 16; ++quantum) {
    SCOPED_TRACE(group[0]->name + "+" + group[1]->name + " quantum " +
                 std::to_string(quantum));
    std::vector<FuzzRun> unit;
    expectUnitMatchesLoneRuns(suite.runner, machines, quantum, group,
                              cache::Scheme::kWayPlacement,
                              static_cast<int>(quantum % 3), &unit);
    if (quantum != 1 || unit.empty()) continue;
    // At quantum 1 every batch is a slice of its own, so a window that
    // timed more instructions than it had openings stayed open across
    // a slice, and the stream spans several RetireChunks, so windows
    // are timed on both sides of chunk boundaries.
    u64 instructions = 0;
    for (const sim::ProcessRunStats& p : unit.front().processes) {
      instructions += p.instructions;
    }
    EXPECT_GT(instructions, 4 * sim::RetireChunk::kBatches);
    for (std::size_t m = 0; m < unit.size(); ++m) {
      SCOPED_TRACE("machine " + std::to_string(m));
      EXPECT_GT(unit[m].windows.instructions, unit[m].windows.windows);
    }
  }
}

TEST(UnitEquivalence, SoloUnitOnTheSmallestMachineMatchesLoneRuns) {
  const FuzzSuite& suite = fuzzSuite();
  // 1 KB, 2 ways, 16 B lines: a miss every few batches, all four
  // schemes with and without the skip, a hooked and a drowsy machine.
  const cache::CacheGeometry g{1024, 16, 2};
  std::vector<FuzzMachine> machines;
  for (const cache::Scheme scheme : kFuzzSchemes) {
    for (const bool skip : {true, false}) {
      machines.push_back({fuzzMachine(suite.runner, g, scheme, skip)});
    }
  }
  machines.push_back(
      {fuzzMachine(suite.runner, g, cache::Scheme::kBaseline, true),
       cache::TlbSwitchPolicy::kFlush, true});
  FuzzMachine drowsy{
      fuzzMachine(suite.runner, g, cache::Scheme::kWayMemoization, true)};
  drowsy.config.fetch.drowsy_window = 16;
  machines.push_back(drowsy);
  for (const FuzzGuest& guest : suite.guests) {
    SCOPED_TRACE(guest.name);
    std::vector<FuzzRun> unit;
    expectUnitMatchesLoneRuns(suite.runner, machines,
                              machines.front().config.max_instructions,
                              {&guest}, cache::Scheme::kWayPlacement, 1,
                              &unit);
    for (const FuzzRun& run : unit) EXPECT_GT(run.windows.windows, 0u);
  }
}

/// Iterations of sameLineBranchesProgram's loop: about ten RetireChunks.
constexpr u32 kSameLineIterations = 16000;

/// A loop whose back edge is three direct branches, all to the loop
/// head: the first is taken on even iterations, the last on odd ones
/// and the middle one on a single odd iteration deep into the run.
/// @p pad nops shift the branches against line boundaries.
ir::Module sameLineBranchesProgram(int pad) {
  using namespace asmkit;
  ModuleBuilder mb;
  mb.bss("out", 4);
  auto& f = mb.func("main");
  f.prologue({r4, r5, r6, r7});
  f.movi(r4, 0);
  f.movi32(r5, kSameLineIterations);
  f.movi32(r7, kSameLineIterations / 2 + 1);
  const Label top = f.label();
  const Label done = f.label();
  f.bind(top);
  f.addi(r4, r4, 1);
  f.cmpBr(r4, r5, Cond::kGe, done);
  for (int i = 0; i < 8 + pad; ++i) f.nop();
  f.andi(r6, r4, 1);
  f.cmpiBr(r6, 0, Cond::kEq, top);
  f.cmpBr(r4, r7, Cond::kEq, top);
  f.jmp(top);
  f.bind(done);
  f.la(r12, "out");
  f.str(r4, r12);
  f.epilogue({r4, r5, r6, r7});
  return mb.build();
}

/// The pcs of @p image's direct branches to the target of its one
/// unconditional branch, then that target.
std::vector<u32> backEdges(const mem::Image& image) {
  std::vector<std::pair<u32, isa::Instruction>> code;
  for (u32 off = 0; off + 4 <= image.code.size(); off += 4) {
    const u32 word = static_cast<u32>(image.code[off]) |
                     static_cast<u32>(image.code[off + 1]) << 8 |
                     static_cast<u32>(image.code[off + 2]) << 16 |
                     static_cast<u32>(image.code[off + 3]) << 24;
    code.emplace_back(mem::kCodeBase + off, isa::decode(word));
  }
  const auto target = [](u32 pc, const isa::Instruction& inst) {
    return pc + 4 + static_cast<u32>(inst.imm) * 4;
  };
  u32 top = 0;
  for (const auto& [pc, inst] : code) {
    if (inst.op == isa::Opcode::kB) top = target(pc, inst);
  }
  std::vector<u32> edges;
  for (const auto& [pc, inst] : code) {
    if ((inst.op == isa::Opcode::kB || inst.op == isa::Opcode::kBeq) &&
        target(pc, inst) == top) {
      edges.push_back(pc);
    }
  }
  edges.push_back(top);
  return edges;
}

TEST(UnitEquivalence, BranchesOfOneLineToOneTargetAreDistinctTransitions) {
  // Way-memoization keeps one branch link per slot, so leaving a line
  // for one target from two slots is two transitions: the middle
  // branch's one crossing needs a tag search and a link write that the
  // crossings from the other two slots, long since linked, do not. A
  // memo keyed on the previous line would price that crossing as a
  // linked one, in a chunk whose every other transition it has seen.
  const cache::CacheGeometry g{2048, 32, 4};
  FuzzGuest guest{"same-line branches", {}, {}, nullptr};
  for (int pad = 0; pad < 8 && guest.original.code.empty(); ++pad) {
    mem::Image image =
        layout::layoutImage(sameLineBranchesProgram(pad), "original");
    const std::vector<u32> edges = backEdges(image);
    ASSERT_EQ(edges.size(), 4u);
    const u32 line = g.lineAddrOf(edges[0]);
    if (g.lineAddrOf(edges[1]) == line && g.lineAddrOf(edges[2]) == line &&
        g.lineAddrOf(edges[3]) != line) {
      guest.original = image;
      guest.placed = std::move(image);
    }
  }
  ASSERT_FALSE(guest.original.code.empty())
      << "no padding put the three branches in one line";

  const driver::Runner runner;
  std::vector<FuzzMachine> machines;
  for (const bool skip : {true, false}) {
    machines.push_back(
        {fuzzMachine(runner, g, cache::Scheme::kWayMemoization, skip)});
  }
  machines.push_back(
      {fuzzMachine(runner, g, cache::Scheme::kWayPlacement, true)});
  machines.push_back({fuzzMachine(runner, g, cache::Scheme::kBaseline, true)});
  std::vector<FuzzRun> unit;
  expectUnitMatchesLoneRuns(runner, machines,
                            machines.front().config.max_instructions,
                            {&guest}, cache::Scheme::kBaseline, 2, &unit);
  ASSERT_EQ(unit.size(), machines.size());
  for (std::size_t m = 0; m < unit.size(); ++m) {
    SCOPED_TRACE("machine " + std::to_string(m));
    EXPECT_EQ(unit[m].output, std::vector<u8>({0x80, 0x3e, 0, 0}));
    EXPECT_GT(unit[m].memo.priced_batches, 0u);
    EXPECT_GT(unit[m].memo.learned_chunks, 0u);
  }
}

/// Iterations of tlbExcursionProgram's loop: about nine RetireChunks.
constexpr u32 kExcursionIterations = 16384;

/// A loop that calls a function one page away on every iteration and
/// one two pages away on every 4096th, with a page of padding between
/// the three.
ir::Module tlbExcursionProgram() {
  using namespace asmkit;
  ModuleBuilder mb;
  mb.bss("out", 4);
  auto& f = mb.func("main");
  f.prologue({r4, r5, r6});
  f.movi(r4, 0);
  f.movi32(r5, kExcursionIterations);
  const Label top = f.label();
  const Label skip = f.label();
  f.bind(top);
  f.call("near");
  f.andi(r6, r4, 4095);
  f.cmpiBr(r6, 0, Cond::kNe, skip);
  f.call("far");
  f.bind(skip);
  f.addi(r4, r4, 1);
  f.cmpBr(r4, r5, Cond::kLt, top);
  f.la(r12, "out");
  f.str(r4, r12);
  f.epilogue({r4, r5, r6});
  for (const char* callee : {"near", "far"}) {
    auto& pad = mb.func(std::string("pad_") + callee);
    for (u32 i = 0; i < mem::kPageBytes / 4; ++i) pad.nop();
    pad.ret();
    auto& g = mb.func(callee);
    g.addi(r0, r0, 1);
    g.ret();
  }
  return mb.build();
}

TEST(UnitEquivalence, ItlbRefillsOfResidentCodeMatchLoneRuns) {
  // On a two-entry I-TLB the hot loop's two pages stay resident until
  // the rare call to the third page evicts one: the next call to the
  // near page walks again, though its lines never left the I-cache. So
  // one transition costs a walk after each excursion and nothing
  // otherwise, and only the install tells the two apart.
  const mem::Image image =
      layout::layoutImage(tlbExcursionProgram(), "original");
  const u32 main_page = mem::pageOf(image.function_addr.at("main"));
  const u32 near_page = mem::pageOf(image.function_addr.at("near"));
  const u32 far_page = mem::pageOf(image.function_addr.at("far"));
  ASSERT_NE(main_page, near_page);
  ASSERT_NE(near_page, far_page);
  ASSERT_NE(far_page, main_page);
  const FuzzGuest guest{"itlb excursions", image, image, nullptr};

  const driver::Runner runner;
  std::vector<FuzzMachine> machines;
  for (const cache::Scheme scheme : kFuzzSchemes) {
    machines.push_back({fuzzMachine(runner, kXScale, scheme, true)});
    machines.back().config.fetch.tlb_entries = 2;
  }
  std::vector<FuzzRun> unit;
  expectUnitMatchesLoneRuns(runner, machines,
                            machines.front().config.max_instructions,
                            {&guest}, cache::Scheme::kBaseline, 2, &unit);
  ASSERT_EQ(unit.size(), machines.size());
  for (std::size_t m = 0; m < unit.size(); ++m) {
    SCOPED_TRACE("machine " + std::to_string(m));
    // Three walks after each of the four excursions, beyond the cold
    // ones, and no line refilled.
    EXPECT_GE(unit[m].itlb_misses, 12u);
    EXPECT_LE(unit[m].icache_misses, image.code.size() / 32);
    EXPECT_GT(unit[m].memo.priced_batches, 0u);
    EXPECT_GT(unit[m].memo.learned_chunks, 0u);
  }
}

}  // namespace
}  // namespace wp
