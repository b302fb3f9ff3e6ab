// Driver integration tests: the paper's experimental flow end to end on
// representative workloads, checking the headline result *shapes*.
#include <gtest/gtest.h>

#include <cstdlib>

#include "driver/runner.hpp"
#include "test_util.hpp"

namespace wp {
namespace {

class DriverShape : public ::testing::TestWithParam<std::string> {};

TEST_P(DriverShape, WayPlacementBeatsBaselineAndMemoization) {
  driver::Runner runner;
  const driver::PreparedWorkload prepared = runner.prepare(GetParam());

  const driver::RunResult base =
      runner.run(prepared, kXScale, driver::SchemeSpec::baseline());
  const driver::RunResult wm =
      runner.run(prepared, kXScale, driver::SchemeSpec::wayMemoization());
  const driver::RunResult wp =
      runner.run(prepared, kXScale, driver::SchemeSpec::wayPlacement(16 * 1024));

  const driver::Normalized nwp = driver::normalize(wp, base);
  const driver::Normalized nwm = driver::normalize(wm, base);

  // Energy: way-placement saves a lot and beats way-memoization.
  EXPECT_LT(nwp.icache_energy, 0.75) << "way-placement savings too small";
  EXPECT_LT(nwp.icache_energy, nwm.icache_energy);

  // Performance: "There is no change in performance when using either
  // way-placement or way-memoization" (§6.1) — within noise.
  EXPECT_NEAR(nwp.delay, 1.0, 0.05);
  EXPECT_NEAR(nwm.delay, 1.0, 0.05);

  // ED product below 1 for way-placement.
  EXPECT_LT(nwp.ed_product, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Representative, DriverShape,
                         ::testing::Values("crc", "sha", "bitcount",
                                           "rijndael_e", "fft"),
                         [](const auto& info) { return info.param; });

TEST(Driver, ProfileUsesSmallInput) {
  driver::Runner runner;
  const driver::PreparedWorkload p = runner.prepare("crc");
  const driver::RunResult large =
      runner.run(p, kXScale, driver::SchemeSpec::baseline());
  // The training run must be much shorter than the evaluation run.
  EXPECT_LT(p.profile_instructions * 4, large.stats.instructions);
}

TEST(Driver, WayPlacementAreaSizeMonotonicity) {
  driver::Runner runner;
  const driver::PreparedWorkload p = runner.prepare("rijndael_e");
  const driver::RunResult base =
      runner.run(p, kXScale, driver::SchemeSpec::baseline());

  double prev = 0.0;
  for (const u32 area : {1024u, 4096u, 16384u}) {
    const driver::RunResult r =
        runner.run(p, kXScale, driver::SchemeSpec::wayPlacement(area));
    const double e = driver::normalize(r, base).icache_energy;
    EXPECT_LT(e, 1.0) << "area " << area;
    if (prev != 0.0) {
      // Larger areas can only help (or tie) on these small programs.
      EXPECT_LE(e, prev + 0.02) << "area " << area;
    }
    prev = e;
  }
}

TEST(Driver, SingleWayFetchesDominateInWpArea) {
  driver::Runner runner;
  const driver::PreparedWorkload p = runner.prepare("sha");
  const driver::RunResult wp =
      runner.run(p, kXScale, driver::SchemeSpec::wayPlacement(16 * 1024));
  const auto& f = wp.stats.fetch;
  // Paper §4.1: the way-hint is very accurate because execution stays
  // inside the way-placement area for long stretches.
  const double accuracy =
      static_cast<double>(f.hint_correct) /
      static_cast<double>(f.hint_correct + f.hint_miss_lost_saving +
                          f.hint_miss_second_access);
  EXPECT_GT(accuracy, 0.95);
  // Nearly every non-same-line fetch is a single-way access.
  EXPECT_GT(f.wp_single_way + f.sameline_skips,
            static_cast<u64>(0.95 * static_cast<double>(f.fetches)));
}

TEST(Driver, EnergyBreakdownIsConsistent) {
  driver::Runner runner;
  const driver::PreparedWorkload p = runner.prepare("crc");
  const driver::RunResult r =
      runner.run(p, kXScale, driver::SchemeSpec::baseline());
  const auto& e = r.energy;
  EXPECT_GT(e.icache.total(), 0.0);
  EXPECT_GT(e.dcache.total(), 0.0);
  EXPECT_GT(e.core, 0.0);
  EXPECT_NEAR(e.total(), e.icache.total() + e.dcache.total() + e.itlb +
                             e.hint + e.core + e.memory,
              1e-9);
  // The I-cache share of total energy should be in the StrongARM
  // ballpark (its I-cache burns 27 % [13]).
  const double share = e.icacheTotal() / e.total();
  EXPECT_GT(share, 0.10);
  EXPECT_LT(share, 0.40);
}

TEST(Driver, WayMemoizationRunsOriginalLayout) {
  const driver::SchemeSpec wm = driver::SchemeSpec::wayMemoization();
  EXPECT_EQ(wm.layout, "original");
  const driver::SchemeSpec wp = driver::SchemeSpec::wayPlacement(1024);
  EXPECT_EQ(wp.layout, "way_placement");
}

TEST(Driver, WpLayoutEnvRetargetsWayPlacementSpecs) {
  setenv("WP_LAYOUT", "call_distance", 1);
  EXPECT_EQ(driver::SchemeSpec::wayPlacement(1024).layout, "call_distance");
  unsetenv("WP_LAYOUT");
  EXPECT_EQ(driver::SchemeSpec::wayPlacement(1024).layout, "way_placement");
}

TEST(Driver, RunCarriesTheLayoutReport) {
  driver::Runner runner;
  const driver::PreparedWorkload p = runner.prepare("crc");
  // Every registered strategy was laid out at prepare() time.
  for (const layout::LayoutStrategy* s : layout::strategies()) {
    EXPECT_EQ(p.layoutFor(s->name).report.strategy, s->name);
  }

  driver::SchemeSpec spec = driver::SchemeSpec::wayPlacement(2048);
  spec.layout = "way_placement";
  const driver::RunResult r = runner.run(p, kXScale, spec);
  EXPECT_EQ(r.layout_strategy, "way_placement");
  EXPECT_GT(r.layout_chains, 0u);
  EXPECT_GT(r.wp_area_coverage, 0.0);
  EXPECT_LE(r.wp_area_coverage, 1.0);

  // Non-way-placement schemes have no WP area to cover.
  const driver::RunResult base =
      runner.run(p, kXScale, driver::SchemeSpec::baseline());
  EXPECT_EQ(base.layout_strategy, "original");
  EXPECT_EQ(base.wp_area_coverage, 0.0);
}

// Regression for the former process-wide experiment seed: when two
// Runners with different seeds interleaved their prepare/run/expected
// calls, whichever ran last silently re-installed its own seed for
// everyone, so the other runner's expected() was computed from the
// wrong inputs. The seed now lives in each Workload instance, so the
// interleaved results must be byte-identical to running each runner
// alone.
TEST(Driver, InterleavedRunnersWithDifferentSeedsDoNotClobber) {
  const driver::SchemeSpec spec = driver::SchemeSpec::baseline();

  // Solo references: one runner at a time, nothing to interfere with.
  std::vector<u8> solo_out1, solo_exp1, solo_out2, solo_exp2;
  {
    driver::Runner solo(energy::EnergyParams{}, 1);
    const driver::PreparedWorkload p = solo.prepare("crc");
    solo_out1 = solo.run(p, kXScale, spec).output;
    solo_exp1 = p.workload->expected(workloads::InputSize::kLarge);
  }
  {
    driver::Runner solo(energy::EnergyParams{}, 2);
    const driver::PreparedWorkload p = solo.prepare("crc");
    solo_out2 = solo.run(p, kXScale, spec).output;
    solo_exp2 = p.workload->expected(workloads::InputSize::kLarge);
  }
  EXPECT_EQ(solo_out1, solo_exp1);
  EXPECT_EQ(solo_out2, solo_exp2);
  ASSERT_NE(solo_out1, solo_out2)
      << "different seeds must generate different inputs";

  // Fully interleaved: every call on `a` is followed by a call on `b`
  // before a's results are read back.
  driver::Runner a(energy::EnergyParams{}, 1);
  driver::Runner b(energy::EnergyParams{}, 2);
  const driver::PreparedWorkload pa = a.prepare("crc");
  const driver::PreparedWorkload pb = b.prepare("crc");
  const std::vector<u8> out_a = a.run(pa, kXScale, spec).output;
  const std::vector<u8> out_b = b.run(pb, kXScale, spec).output;
  const auto exp_a = pa.workload->expected(workloads::InputSize::kLarge);
  const auto exp_b = pb.workload->expected(workloads::InputSize::kLarge);

  EXPECT_EQ(out_a, solo_out1);
  EXPECT_EQ(out_b, solo_out2);
  EXPECT_EQ(exp_a, solo_exp1);
  EXPECT_EQ(exp_b, solo_exp2);
}

TEST(Driver, MachineMatchesTable1) {
  driver::Runner runner;
  const sim::MachineConfig m =
      runner.machineFor(kXScale, driver::SchemeSpec::baseline());
  EXPECT_EQ(m.fetch.tlb_entries, 32u);            // 32-entry I-TLB
  EXPECT_EQ(m.fetch.mem_latency_cycles, 50u);     // 50-cycle memory
  EXPECT_EQ(m.dcache.geometry.size_bytes, 32u * 1024u);
  EXPECT_EQ(m.dcache.geometry.ways, 32u);
  EXPECT_EQ(m.dcache.geometry.line_bytes, 32u);
}

}  // namespace
}  // namespace wp
