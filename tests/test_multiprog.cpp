// Multiprogramming tests: the guest scheduler's architectural
// invariants (every process's retired stream equals its solo run at any
// switch quantum, batched or per-instruction, under all four schemes),
// the co-run driver plumbing (runCoRun, cell keys, co-run baselines,
// result-store round-trips) and the switch-policy energy asymmetry
// (ASID tagging walks less than flush-on-switch).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "driver/checkpoint.hpp"
#include "driver/sweep.hpp"
#include "sim/scheduler.hpp"
#include "workloads/workload.hpp"
#include "test_util.hpp"

namespace wp {
namespace {

driver::SchemeSpec corunSpec(driver::SchemeSpec base, u64 quantum,
                             const std::string& partners = {},
                             cache::TlbSwitchPolicy policy =
                                 cache::TlbSwitchPolicy::kFlush) {
  base.corun_quantum = quantum;
  base.corun_partners = partners;
  base.corun_tlb = policy;
  return base;
}

// ---------------------------------------------------------------------
// GuestScheduler basics.

TEST(GuestScheduler, RejectsZeroQuantumAndEmptyRuns) {
  driver::Runner runner;
  const sim::MachineConfig machine =
      runner.machineFor(kXScale, driver::SchemeSpec::baseline());
  EXPECT_THROW(sim::GuestScheduler(machine, sim::SchedulerConfig{0}),
               SimError);
  sim::GuestScheduler sched(machine, sim::SchedulerConfig{});
  EXPECT_THROW(sched.run(), SimError) << "no processes registered";
}

TEST(GuestScheduler, SoloProcessHasNoContextSwitches) {
  driver::Runner runner;
  const driver::PreparedWorkload p = runner.prepare("crc");
  driver::Runner::CoRunExtra extra;
  const driver::RunResult r = runner.runCoRun(
      {&p}, kXScale, corunSpec(driver::SchemeSpec::baseline(), 500),
      workloads::InputSize::kLarge, nullptr, &extra);
  EXPECT_EQ(extra.context_switches, 0u)
      << "round-robin over one process never switches away";
  EXPECT_GT(extra.slices, 1u) << "but it is still sliced";
  ASSERT_EQ(extra.processes.size(), 1u);
  EXPECT_EQ(extra.processes[0].instructions, r.stats.instructions);
}

TEST(GuestScheduler, TwoProcessesAtHugeQuantumSwitchOnce) {
  driver::Runner runner;
  const driver::PreparedWorkload a = runner.prepare("crc");
  const driver::PreparedWorkload b = runner.prepare("sha");
  driver::Runner::CoRunExtra extra;
  (void)runner.runCoRun(
      {&a, &b}, kXScale,
      corunSpec(driver::SchemeSpec::baseline(), 1'000'000'000ULL),
      workloads::InputSize::kLarge, nullptr, &extra);
  // Each process finishes inside its first slice: exactly one switch
  // (a -> b), two slices.
  EXPECT_EQ(extra.context_switches, 1u);
  EXPECT_EQ(extra.slices, 2u);
}

// ---------------------------------------------------------------------
// The headline invariant: a one-process co-run IS the solo run. Same
// stats digest (every RunStats counter + priced energy + layout
// ride-alongs), same output bytes — the scheduler's first install must
// not charge any switch cost.

TEST(CoRunEquivalence, OneProcessCoRunMatchesSoloBitForBit) {
  driver::Runner runner;
  const driver::PreparedWorkload p = runner.prepare("crc");
  const driver::SchemeSpec specs[] = {
      driver::SchemeSpec::baseline(),
      driver::SchemeSpec::wayPlacement(16 * 1024),
      driver::SchemeSpec::wayMemoization(),
      driver::SchemeSpec::wayPrediction(),
  };
  for (const driver::SchemeSpec& spec : specs) {
    SCOPED_TRACE(cache::schemeName(spec.scheme));
    const driver::RunResult solo = runner.run(p, kXScale, spec);
    for (const u64 quantum : {64ULL, 4096ULL, 1'000'000'000ULL}) {
      SCOPED_TRACE(quantum);
      const driver::RunResult co =
          runner.runCoRun({&p}, kXScale, corunSpec(spec, quantum));
      EXPECT_EQ(driver::statsDigest(co), driver::statsDigest(solo));
      EXPECT_EQ(co.output, solo.output);
    }
  }
}

// ---------------------------------------------------------------------
// The acceptance invariant: in an N-process co-run, every process's
// retired_pc_hash/dataflow_hash and output equal its *solo* run, for
// every scheme, at every switch quantum — sharing the fetch path may
// cost energy and cycles but can never change architecture.

TEST(CoRunEquivalence, EveryProcessMatchesItsSoloRunAcrossQuanta) {
  driver::Runner runner;
  const driver::PreparedWorkload a = runner.prepare("crc");
  const driver::PreparedWorkload b = runner.prepare("sha");
  const driver::SchemeSpec specs[] = {
      driver::SchemeSpec::baseline(),
      driver::SchemeSpec::wayPlacement(16 * 1024),
      driver::SchemeSpec::wayMemoization(),
      driver::SchemeSpec::wayPrediction(),
  };
  for (const driver::SchemeSpec& spec : specs) {
    SCOPED_TRACE(cache::schemeName(spec.scheme));
    const driver::RunResult solo_a = runner.run(a, kXScale, spec);
    const driver::RunResult solo_b = runner.run(b, kXScale, spec);
    // Quantum 1 lives in its own small-input test below: a full-cache
    // flush per retired instruction is O(lines) per switch and would
    // dominate the whole suite's runtime on the large input.
    for (const u64 quantum : {97ULL, 5000ULL}) {
      SCOPED_TRACE(quantum);
      for (const auto policy : {cache::TlbSwitchPolicy::kFlush,
                                cache::TlbSwitchPolicy::kAsidTagged}) {
        SCOPED_TRACE(cache::tlbSwitchPolicyName(policy));
        driver::Runner::CoRunExtra extra;
        const driver::RunResult co = runner.runCoRun(
            {&a, &b}, kXScale, corunSpec(spec, quantum, "", policy),
            workloads::InputSize::kLarge, nullptr, &extra);
        ASSERT_EQ(extra.processes.size(), 2u);
        EXPECT_EQ(extra.processes[0].retired_pc_hash,
                  solo_a.stats.retired_pc_hash);
        EXPECT_EQ(extra.processes[0].dataflow_hash,
                  solo_a.stats.dataflow_hash);
        EXPECT_EQ(extra.processes[0].instructions, solo_a.stats.instructions);
        EXPECT_EQ(extra.processes[0].output, solo_a.output);
        EXPECT_EQ(extra.processes[1].retired_pc_hash,
                  solo_b.stats.retired_pc_hash);
        EXPECT_EQ(extra.processes[1].dataflow_hash,
                  solo_b.stats.dataflow_hash);
        EXPECT_EQ(extra.processes[1].instructions, solo_b.stats.instructions);
        EXPECT_EQ(extra.processes[1].output, solo_b.output);
        // The combined totals cover exactly the two processes.
        EXPECT_EQ(co.stats.instructions,
                  solo_a.stats.instructions + solo_b.stats.instructions);
        EXPECT_EQ(co.output.size(), solo_a.output.size() + solo_b.output.size());
      }
    }
  }
}

TEST(CoRunEquivalence, QuantumOfOneStillMatchesSolo) {
  // The pathological extreme: a context switch after *every* retired
  // instruction, on the small input (each switch flushes the whole
  // cache, so the large input would be disproportionately slow).
  driver::Runner runner;
  const driver::PreparedWorkload a = runner.prepare("crc");
  const driver::PreparedWorkload b = runner.prepare("bitcount");
  const driver::SchemeSpec spec = driver::SchemeSpec::wayPlacement(16 * 1024);
  const driver::RunResult solo_a =
      runner.run(a, kXScale, spec, workloads::InputSize::kSmall);
  const driver::RunResult solo_b =
      runner.run(b, kXScale, spec, workloads::InputSize::kSmall);
  for (const auto policy : {cache::TlbSwitchPolicy::kFlush,
                            cache::TlbSwitchPolicy::kAsidTagged}) {
    SCOPED_TRACE(cache::tlbSwitchPolicyName(policy));
    driver::Runner::CoRunExtra extra;
    (void)runner.runCoRun({&a, &b}, kXScale, corunSpec(spec, 1, "", policy),
                          workloads::InputSize::kSmall, nullptr, &extra);
    ASSERT_EQ(extra.processes.size(), 2u);
    EXPECT_EQ(extra.processes[0].retired_pc_hash,
              solo_a.stats.retired_pc_hash);
    EXPECT_EQ(extra.processes[0].dataflow_hash, solo_a.stats.dataflow_hash);
    EXPECT_EQ(extra.processes[0].output, solo_a.output);
    EXPECT_EQ(extra.processes[1].retired_pc_hash,
              solo_b.stats.retired_pc_hash);
    EXPECT_EQ(extra.processes[1].dataflow_hash, solo_b.stats.dataflow_hash);
    EXPECT_EQ(extra.processes[1].output, solo_b.output);
  }
}

/// Observes nothing; attaching it only forces one-instruction batches.
class NoOpHook : public cache::FetchFaultHook {
 public:
  void onFetch(cache::FetchPath&) override {}
};

TEST(CoRunEquivalence, InterpAndBlockEnginesAgreeOnCoRuns) {
  driver::Runner runner;
  const driver::PreparedWorkload a = runner.prepare("crc");
  const driver::PreparedWorkload b = runner.prepare("bitcount");
  const driver::SchemeSpec spec = driver::SchemeSpec::wayPlacement(16 * 1024);
  const sim::MachineConfig machine = runner.machineFor(kXScale, spec);
  // 97: a prime quantum, so batches are clipped at odd offsets and the
  // clipping itself is exercised against the per-instruction reference
  // (a NoOpHook attached).
  sim::SchedulerConfig sched_config;
  sched_config.quantum = 97;
  const auto coRun = [&](cache::FetchFaultHook* hook) {
    sim::GuestScheduler sched(machine, sched_config);
    for (const driver::PreparedWorkload* pw : {&a, &b}) {
      const u32 asid = sched.addProcess(pw->name, pw->imageFor(spec.layout),
                                        spec.wp_area_bytes);
      pw->workload->prepare(sched.memoryOf(asid),
                            workloads::InputSize::kLarge);
    }
    sched.fetchPath().attachFaultHook(hook);
    return sched.run();
  };
  NoOpHook hook;
  const sim::CoRunStats interp = coRun(&hook);
  const sim::CoRunStats block = coRun(nullptr);

  driver::RunResult interp_combined;
  interp_combined.stats = interp.combined;
  driver::RunResult block_combined;
  block_combined.stats = block.combined;
  EXPECT_EQ(driver::statsDigest(interp_combined),
            driver::statsDigest(block_combined));
  EXPECT_EQ(interp.context_switches, block.context_switches);
  ASSERT_EQ(interp.processes.size(), 2u);
  ASSERT_EQ(block.processes.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(interp.processes[i].name);
    EXPECT_EQ(interp.processes[i].instructions, block.processes[i].instructions);
    EXPECT_EQ(interp.processes[i].retired_pc_hash,
              block.processes[i].retired_pc_hash);
    EXPECT_EQ(interp.processes[i].dataflow_hash,
              block.processes[i].dataflow_hash);
    EXPECT_EQ(interp.processes[i].cycles, block.processes[i].cycles);
  }
}

TEST(CoRunEquivalence, DrowsyCoRunFallsBackToInterpAndStaysSolo) {
  // Drowsy lines disable the batched closed form; the scheduler must
  // take its per-instruction path and still preserve per-process
  // architecture across switch-time onCacheFlush events.
  driver::Runner runner;
  const driver::PreparedWorkload a = runner.prepare("crc");
  const driver::PreparedWorkload b = runner.prepare("sha");
  driver::SchemeSpec spec = corunSpec(driver::SchemeSpec::baseline(), 250);
  spec.drowsy_window = 16;
  const driver::RunResult solo_a = runner.run(a, kXScale, spec);
  const driver::RunResult solo_b = runner.run(b, kXScale, spec);
  driver::Runner::CoRunExtra extra;
  (void)runner.runCoRun({&a, &b}, kXScale, spec,
                        workloads::InputSize::kLarge, nullptr, &extra);
  ASSERT_EQ(extra.processes.size(), 2u);
  EXPECT_EQ(extra.processes[0].retired_pc_hash, solo_a.stats.retired_pc_hash);
  EXPECT_EQ(extra.processes[1].retired_pc_hash, solo_b.stats.retired_pc_hash);
  EXPECT_EQ(extra.processes[0].output, solo_a.output);
  EXPECT_EQ(extra.processes[1].output, solo_b.output);
}

// ---------------------------------------------------------------------
// Switch-policy physics: ASID tags keep translations resident across
// switches, so a co-run walks the page table less than flush-on-switch
// — that asymmetry is the whole reason the policy knob exists.

TEST(CoRunPolicy, AsidTaggingWalksLessThanFlushing) {
  driver::Runner runner;
  const driver::PreparedWorkload a = runner.prepare("crc");
  const driver::PreparedWorkload b = runner.prepare("sha");
  const driver::SchemeSpec base = driver::SchemeSpec::baseline();
  const driver::RunResult flushed =
      runner.runCoRun({&a, &b}, kXScale,
                      corunSpec(base, 200, "", cache::TlbSwitchPolicy::kFlush));
  const driver::RunResult tagged = runner.runCoRun(
      {&a, &b}, kXScale,
      corunSpec(base, 200, "", cache::TlbSwitchPolicy::kAsidTagged));
  EXPECT_LT(tagged.stats.itlb.walks, flushed.stats.itlb.walks);
  // Architecture is identical either way.
  EXPECT_EQ(tagged.stats.retired_pc_hash, flushed.stats.retired_pc_hash);
  EXPECT_EQ(tagged.stats.dataflow_hash, flushed.stats.dataflow_hash);
}

// ---------------------------------------------------------------------
// Driver guards.

TEST(CoRunGuards, RunCoRunRejectsMisuse) {
  driver::Runner runner;
  const driver::PreparedWorkload p = runner.prepare("crc");
  // Solo spec (quantum 0) is run()'s territory.
  EXPECT_THROW((void)runner.runCoRun({&p}, kXScale,
                                     driver::SchemeSpec::baseline()),
               SimError);
  // An empty group has nothing to schedule.
  EXPECT_THROW((void)runner.runCoRun(
                   {}, kXScale, corunSpec(driver::SchemeSpec::baseline(), 100)),
               SimError);
  // Runtime fault injection is a solo-run facility.
  driver::SchemeSpec faulty =
      corunSpec(driver::SchemeSpec::wayPlacement(16 * 1024), 100);
  faulty.fault.period = 64;
  faulty.fault.flip_way_hint = true;
  EXPECT_THROW((void)runner.runCoRun({&p}, kXScale, faulty), SimError);
  // A solo spec is a group of exactly one.
  EXPECT_THROW((void)runner.runGroup({&p, &p}, kXScale,
                                     driver::SchemeSpec::baseline()),
               SimError);
}

// ---------------------------------------------------------------------
// Cell keys and baselines: the co-run axis must be memo-key material,
// and co-run cells must normalize against co-run baselines.

TEST(CoRunKeys, QuantumPolicyAndPartnersAreAllKeyMaterial) {
  using driver::SweepExecutor;
  const driver::SchemeSpec solo = driver::SchemeSpec::wayPlacement(16 * 1024);
  const driver::SchemeSpec co = corunSpec(solo, 2000, "sha");
  const std::string solo_key = SweepExecutor::keyOf("crc", kXScale, solo);
  const std::string co_key = SweepExecutor::keyOf("crc", kXScale, co);
  EXPECT_NE(solo_key, co_key);
  EXPECT_EQ(solo_key.find("/m"), std::string::npos)
      << "solo keys keep their pre-multiprog spelling";
  EXPECT_NE(co_key.find("/m2000:"), std::string::npos);

  EXPECT_NE(co_key, SweepExecutor::keyOf("crc", kXScale,
                                         corunSpec(solo, 4000, "sha")));
  EXPECT_NE(co_key, SweepExecutor::keyOf("crc", kXScale,
                                         corunSpec(solo, 2000, "bitcount")));
  EXPECT_NE(co_key,
            SweepExecutor::keyOf(
                "crc", kXScale,
                corunSpec(solo, 2000, "sha",
                          cache::TlbSwitchPolicy::kAsidTagged)));
}

TEST(CoRunKeys, BaselineForSoloIsThePlainBaseline) {
  const driver::SchemeSpec solo = driver::SchemeSpec::wayPlacement(16 * 1024);
  EXPECT_EQ(driver::SweepExecutor::keyOf(
                "crc", kXScale, driver::SchemeSpec::baselineFor(solo)),
            driver::SweepExecutor::keyOf("crc", kXScale,
                                         driver::SchemeSpec::baseline()));
}

TEST(CoRunKeys, BaselineForCoRunKeepsTheCoRunAxis) {
  const driver::SchemeSpec co = corunSpec(
      driver::SchemeSpec::wayPlacement(16 * 1024), 2000, "sha");
  const driver::SchemeSpec base = driver::SchemeSpec::baselineFor(co);
  EXPECT_EQ(base.scheme, cache::Scheme::kBaseline);
  EXPECT_EQ(base.corun_quantum, 2000u);
  EXPECT_EQ(base.corun_partners, "sha");
  EXPECT_NE(driver::SweepExecutor::keyOf("crc", kXScale, base),
            driver::SweepExecutor::keyOf("crc", kXScale,
                                         driver::SchemeSpec::baseline()));
}

// ---------------------------------------------------------------------
// Sweep integration: co-run cells flow through memo / normalization /
// quarantine exactly like solo cells.

TEST(CoRunSweep, CoRunCellsNormalizeAgainstCoRunBaselines) {
  driver::SupervisorConfig pinned;
  pinned.retries = 0;
  driver::SweepExecutor suite({"crc", "sha"}, energy::EnergyParams{}, 0, 2,
                              &pinned);
  const driver::SchemeSpec spec = corunSpec(
      driver::SchemeSpec::wayPlacement(16 * 1024), 2000, "sha");
  const driver::SweepExecutor::SuiteAverage avg =
      suite.averageNormalizedChecked(
          kXScale, spec,
          [](const driver::Normalized& n) { return n.icache_energy; });
  EXPECT_EQ(avg.excluded, 0u);
  EXPECT_EQ(avg.included, 2u);
  EXPECT_GT(avg.mean, 0.0);
  EXPECT_LT(avg.mean, 1.0) << "way placement still saves I-cache energy "
                              "under time-slicing";
  EXPECT_TRUE(suite.quarantined().empty());
}

TEST(CoRunSweep, UnknownPartnerQuarantinesWithTheKeyAttached) {
  driver::SupervisorConfig pinned;
  pinned.retries = 0;
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 1, &pinned);
  const driver::SchemeSpec spec =
      corunSpec(driver::SchemeSpec::baseline(), 1000, "no-such-workload");
  const driver::SweepExecutor::CellView view =
      suite.tryRun(suite.prepared()[0], kXScale, spec);
  ASSERT_TRUE(view.quarantined);
  EXPECT_NE(view.error->find("no-such-workload"), std::string::npos);
  EXPECT_NE(view.error->find("/m1000:"), std::string::npos)
      << "the failure names the full cell key";
}

// A leading, doubled or trailing comma names an empty partner. Each is
// a failure, not a spelling: accepting "sha," would run the machine of
// "sha" under a second cell key.
TEST(CoRunSweep, EmptyPartnerNamesQuarantineWithTheKeyAttached) {
  driver::SupervisorConfig pinned;
  pinned.retries = 0;
  driver::SweepExecutor suite({"crc", "sha"}, energy::EnergyParams{}, 0, 1,
                              &pinned);
  for (const char* partners : {",sha", "sha,,sha", "sha,"}) {
    SCOPED_TRACE(partners);
    const driver::SchemeSpec spec =
        corunSpec(driver::SchemeSpec::baseline(), 1000, partners);
    const driver::SweepExecutor::CellView view =
        suite.tryRun(suite.prepared()[0], kXScale, spec);
    ASSERT_TRUE(view.quarantined);
    EXPECT_NE(view.error->find("empty co-run partner name"),
              std::string::npos);
    EXPECT_NE(view.error->find(
                  driver::SweepExecutor::keyOf("crc", kXScale, spec)),
              std::string::npos)
        << "the failure names the full cell key";
  }
  EXPECT_EQ(suite.metrics().counter("cells.computed").value(), 0u);
}

TEST(CoRunSweep, CoRunCellsRoundTripThroughTheResultStore) {
  const std::string dir = testing::TempDir() + "corun_store_test";
  std::filesystem::remove_all(dir);
  ScopedEnv env("WP_STORE", dir.c_str());
  const driver::SchemeSpec spec = corunSpec(
      driver::SchemeSpec::wayPlacement(16 * 1024), 2000, "sha");
  u64 first_digest = 0;
  {
    driver::SweepExecutor suite({"crc", "sha"}, energy::EnergyParams{}, 0, 1);
    first_digest = driver::statsDigest(
        suite.run(suite.prepared()[0], kXScale, spec));
  }
  driver::SweepExecutor warm({"crc", "sha"}, energy::EnergyParams{}, 0, 1);
  const driver::SweepExecutor::CellView view =
      warm.tryRun(warm.prepared()[0], kXScale, spec);
  ASSERT_FALSE(view.quarantined);
  EXPECT_EQ(view.attempts, 0u) << "served from the store, not re-run";
  EXPECT_EQ(warm.metrics().counter("cells.from_store").value(), 1u);
  EXPECT_EQ(driver::statsDigest(*view.result), first_digest);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wp
