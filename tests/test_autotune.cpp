// Tests for the measured-energy layout autotuner: strict WP_TUNE_*
// parsing, deterministic seeded search, the improve-or-match guarantee
// against the paper's ordering, and the per-workload read-out.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "driver/autotune.hpp"
#include "mem/memory.hpp"
#include "test_util.hpp"

namespace wp {
namespace {

driver::AutotuneConfig configWith(unsigned evals) {
  driver::AutotuneConfig c;
  c.evals = evals;
  return c;
}

TEST(AutotuneConfig, DefaultsWhenEnvIsUnset) {
  unsetenv("WP_TUNE_EVALS");
  unsetenv("WP_TUNE_OBJECTIVE");
  const driver::AutotuneConfig c = driver::AutotuneConfig::fromEnv();
  EXPECT_EQ(c.evals, 24u);
  EXPECT_EQ(c.objective, driver::AutotuneConfig::Objective::kIcacheEnergy);
  EXPECT_STREQ(c.objectiveName(), "icache_energy");
}

TEST(AutotuneConfig, ParsesTheEnvKnobs) {
  setenv("WP_TUNE_EVALS", "12", 1);
  setenv("WP_TUNE_OBJECTIVE", "ed_product", 1);
  const driver::AutotuneConfig c = driver::AutotuneConfig::fromEnv();
  EXPECT_EQ(c.evals, 12u);
  EXPECT_EQ(c.objective, driver::AutotuneConfig::Objective::kEdProduct);
  EXPECT_STREQ(c.objectiveName(), "ed_product");
  unsetenv("WP_TUNE_EVALS");
  unsetenv("WP_TUNE_OBJECTIVE");
}

TEST(AutotuneConfigDeathTest, GarbageBudgetExitsWithStatusOne) {
  // Same strictness as WP_JOBS / WP_SEED: a typo kills the run at
  // startup instead of silently tuning with the wrong budget.
  for (const char* bad : {"soon", "0", "-3", "1000001", "12moar", ""}) {
    if (*bad == '\0') continue;  // empty means default, tested above
    EXPECT_EXIT(
        {
          setenv("WP_TUNE_EVALS", bad, 1);
          (void)driver::AutotuneConfig::fromEnv();
        },
        ::testing::ExitedWithCode(1), "WP_TUNE_EVALS")
        << bad;
  }
}

TEST(AutotuneConfigDeathTest, UnknownObjectiveExitsWithStatusOne) {
  EXPECT_EXIT(
      {
        unsetenv("WP_TUNE_EVALS");
        setenv("WP_TUNE_OBJECTIVE", "joules", 1);
        (void)driver::AutotuneConfig::fromEnv();
      },
      ::testing::ExitedWithCode(1), "WP_TUNE_OBJECTIVE");
}

TEST(Autotune, StartsFromThePaperSchemeAndNeverRegresses) {
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 2);
  const driver::AutotuneResult r =
      driver::autotuneLayout(suite, kXScale, 1024, configWith(6));

  EXPECT_EQ(r.start_spec, layout::defaultStrategyName());
  ASSERT_FALSE(r.trajectory.empty());
  EXPECT_EQ(r.trajectory.front().spec, r.start_spec);
  EXPECT_GE(r.evals_used, 1u);
  EXPECT_LE(r.evals_used, 6u);
  EXPECT_EQ(r.trajectory.size(), r.evals_used);
  for (unsigned i = 0; i < r.trajectory.size(); ++i) {
    EXPECT_EQ(r.trajectory[i].eval, i + 1);
  }

  // Strict-improvement acceptance: the best found can only beat or
  // match the starting point on the objective.
  ASSERT_GT(r.start.included, 0u);
  ASSERT_GT(r.best.included, 0u);
  EXPECT_LE(r.best.mean, r.start.mean);
  // The winner is a resolvable spec (it becomes WP_LAYOUT material).
  EXPECT_NO_THROW((void)layout::resolveStrategy(r.best_spec));
}

TEST(Autotune, BudgetOfOnePricesOnlyTheStartingPoint) {
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 2);
  const driver::AutotuneResult r =
      driver::autotuneLayout(suite, kXScale, 1024, configWith(1));
  EXPECT_EQ(r.evals_used, 1u);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.best_spec, r.start_spec);
  EXPECT_EQ(r.best.mean, r.start.mean);
}

TEST(Autotune, SameSeedReplaysTheIdenticalTrajectory) {
  // Two fresh executors, same seed and budget: byte-identical search —
  // specs, order, objective values, winner.
  const auto run = [] {
    driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 2);
    return driver::autotuneLayout(suite, kXScale, 1024, configWith(5));
  };
  const driver::AutotuneResult a = run();
  const driver::AutotuneResult b = run();
  EXPECT_EQ(a.best_spec, b.best_spec);
  EXPECT_EQ(a.evals_used, b.evals_used);
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (unsigned i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].spec, b.trajectory[i].spec) << i;
    EXPECT_EQ(a.trajectory[i].objective.mean, b.trajectory[i].objective.mean)
        << i;
    EXPECT_EQ(a.trajectory[i].improved, b.trajectory[i].improved) << i;
  }
  EXPECT_EQ(a.best.mean, b.best.mean);
}

TEST(Autotune, DifferentSeedsMayExploreDifferentAxisOrders) {
  // The axis shuffle is part of the seed's experiment identity: the
  // trajectory after the start point is seed-dependent (the *result*
  // may coincide; the candidate order generally does not).
  driver::SweepExecutor s0({"crc"}, energy::EnergyParams{}, 0, 2);
  driver::SweepExecutor s7({"crc"}, energy::EnergyParams{}, 7, 2);
  const driver::AutotuneResult a =
      driver::autotuneLayout(s0, kXScale, 1024, configWith(4));
  const driver::AutotuneResult b =
      driver::autotuneLayout(s7, kXScale, 1024, configWith(4));
  std::vector<std::string> sa, sb;
  for (const auto& st : a.trajectory) sa.push_back(st.spec);
  for (const auto& st : b.trajectory) sb.push_back(st.spec);
  EXPECT_NE(sa, sb);
}

TEST(Autotune, PerWorkloadReadOutRecommendsAPageMultipleArea) {
  driver::SweepExecutor suite({"crc", "bitcount"}, energy::EnergyParams{}, 0,
                              2);
  const driver::AutotuneResult r =
      driver::autotuneLayout(suite, kXScale, 1024, configWith(6));
  ASSERT_EQ(r.per_workload.size(), 2u);
  EXPECT_EQ(r.per_workload[0].workload, "crc");
  EXPECT_EQ(r.per_workload[1].workload, "bitcount");
  for (const driver::AutotuneWorkloadBest& wb : r.per_workload) {
    ASSERT_FALSE(wb.quarantined) << wb.workload;
    EXPECT_FALSE(wb.spec.empty()) << wb.workload;
    EXPECT_GT(wb.objective, 0.0) << wb.workload;
    // The dominant-block recommendation is a whole number of pages and
    // covers what it claims to cover.
    ASSERT_GT(wb.recommended_wp_bytes, 0u) << wb.workload;
    EXPECT_EQ(wb.recommended_wp_bytes % mem::kPageBytes, 0u) << wb.workload;
    EXPECT_GT(wb.recommended_coverage, 0.0) << wb.workload;
    EXPECT_LE(wb.recommended_coverage, 1.0) << wb.workload;
  }
}

}  // namespace
}  // namespace wp
