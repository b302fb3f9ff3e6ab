// Tests for the cell supervision layer (driver/supervisor.hpp):
// transient faults healing on retry, persistent faults quarantining
// without polluting the memo, and watchdog timeouts.
// Crash-safe resume through the result store lives in
// test_result_store.cpp.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdlib>
#include <string>

#include "driver/checkpoint.hpp"
#include "driver/sweep.hpp"
#include "support/ensure.hpp"
#include "test_util.hpp"

namespace wp {
namespace {

driver::SchemeSpec wpSpec() {
  return driver::SchemeSpec::wayPlacement(16 * 1024);
}

/// A way-placement spec whose cell itself fails (spec-level cell fault,
/// so only this one memo cell is affected — baselines stay healthy).
driver::SchemeSpec cellFaulted(fault::CellFault kind, u32 failures = 1) {
  driver::SchemeSpec s = wpSpec();
  s.fault.cell_fault = kind;
  s.fault.cell_fault_failures = failures;
  return s;
}

double icacheEnergy(const driver::Normalized& n) { return n.icache_energy; }

// ---------------------------------------------------------------------
// Transient faults heal on retry with bit-identical results.

TEST(CellSupervision, TransientCellFaultHealsOnRetryBitIdentically) {
  driver::SupervisorConfig cfg;
  cfg.retries = 2;
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 1, &cfg);
  const auto& p = suite.prepared().at(0);

  const auto clean = suite.tryRun(p, kXScale, wpSpec());
  const auto healed =
      suite.tryRun(p, kXScale, cellFaulted(fault::CellFault::kTransient, 1));
  ASSERT_FALSE(clean.quarantined);
  ASSERT_FALSE(healed.quarantined);
  EXPECT_EQ(clean.attempts, 1u);
  EXPECT_EQ(healed.attempts, 2u) << "one failing attempt, then the heal";

  // The retry replays the same deterministic simulation: guest-side
  // stats, energy and output are bit-identical to the clean cell.
  EXPECT_EQ(driver::statsDigest(*healed.result),
            driver::statsDigest(*clean.result));
  EXPECT_EQ(healed.result->output, clean.result->output);

  EXPECT_EQ(suite.metrics().counter("cells.healed").value(), 1u);
  EXPECT_EQ(suite.metrics().counter("cells.failed_attempts").value(), 1u);
  EXPECT_TRUE(suite.quarantined().empty());
}

// ---------------------------------------------------------------------
// Persistent faults quarantine: tagged error, exclusion, no pollution.

TEST(CellSupervision, PersistentCellFaultQuarantinesWithFullIdentity) {
  driver::SupervisorConfig cfg;
  cfg.retries = 1;
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 1, &cfg);
  const auto& p = suite.prepared().at(0);
  const driver::SchemeSpec bad = cellFaulted(fault::CellFault::kPersistent);
  const std::string key = driver::SweepExecutor::keyOf(p.name, kXScale, bad);

  const auto view = suite.tryRun(p, kXScale, bad);
  ASSERT_TRUE(view.quarantined);
  EXPECT_EQ(view.result, nullptr);
  EXPECT_EQ(view.attempts, 2u) << "1 + retries attempts before quarantine";
  ASSERT_NE(view.error, nullptr);
  EXPECT_NE(view.error->find(key), std::string::npos)
      << "a failure must carry the full cell key, got: " << *view.error;

  // run() surfaces the same tagged identity through its exception.
  try {
    suite.run(p, kXScale, bad);
    FAIL() << "run() of a quarantined cell must throw";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos);
  }

  // Aggregation excludes the quarantined cell instead of aborting.
  const auto avg = suite.averageNormalizedChecked(kXScale, bad, icacheEnergy);
  EXPECT_EQ(avg.included, 0u);
  EXPECT_EQ(avg.excluded, 1u);
  EXPECT_TRUE(avg.degraded());
  EXPECT_EQ(avg.mean, 0.0);

  const auto q = suite.quarantined();
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q[0].key, key);
  EXPECT_EQ(q[0].attempts, 2u);

  // The quarantine never pollutes healthy cells: the clean scheme (and
  // the shared baseline) still price normally on the same executor.
  const auto good =
      suite.averageNormalizedChecked(kXScale, wpSpec(), icacheEnergy);
  EXPECT_EQ(good.included, 1u);
  EXPECT_EQ(good.excluded, 0u);
  EXPECT_GT(good.mean, 0.0);

  // Re-requesting the cell re-reads the settled quarantine; it never
  // silently burns more attempts.
  const u64 failed = suite.metrics().counter("cells.failed_attempts").value();
  const auto again = suite.tryRun(p, kXScale, bad);
  EXPECT_TRUE(again.quarantined);
  EXPECT_EQ(suite.metrics().counter("cells.failed_attempts").value(), failed);
}

// ---------------------------------------------------------------------
// Watchdog: a runaway cell is aborted and treated like any failure.

TEST(CellSupervision, WatchdogQuarantinesRunawayCell) {
  driver::SupervisorConfig cfg;
  cfg.retries = 0;
  cfg.cell_timeout_ms = 1;
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 1, &cfg);
  const auto& p = suite.prepared().at(0);

  const auto view = suite.tryRun(p, kXScale, wpSpec());
  ASSERT_TRUE(view.quarantined) << "a 1ms budget cannot fit the simulation";
  ASSERT_NE(view.error, nullptr);
  EXPECT_NE(view.error->find("cell watchdog"), std::string::npos);
  EXPECT_NE(view.error->find("WP_CELL_TIMEOUT_MS=1"), std::string::npos);
  EXPECT_NE(view.error
                ->find(driver::SweepExecutor::keyOf(p.name, kXScale, wpSpec())),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Strict knob parsing: garbage in any supervision knob exits 1 with a
// message naming the knob — overflow and trailing-garbage numerics
// must never round, truncate or silently fall back to a default.

using SupervisorEnvDeathTest = ::testing::Test;

TEST(SupervisorEnvDeathTest, OverflowRetriesExits) {
  ScopedEnv env("WP_RETRIES", "99999999999999999999");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1), "WP_RETRIES='99999999999999999999'");
}

TEST(SupervisorEnvDeathTest, TrailingGarbageTimeoutExits) {
  ScopedEnv env("WP_CELL_TIMEOUT_MS", "100x");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1), "WP_CELL_TIMEOUT_MS='100x'");
}

TEST(SupervisorEnvDeathTest, NegativeTimeoutExits) {
  ScopedEnv env("WP_CELL_TIMEOUT_MS", "-1");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1), "WP_CELL_TIMEOUT_MS='-1'");
}

TEST(SupervisorEnvDeathTest, MalformedCellFaultExits) {
  {
    ScopedEnv env("WP_CELL_FAULT", "bogus");
    EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
                testing::ExitedWithCode(1), "WP_CELL_FAULT='bogus'");
  }
  {
    // crash is no cell fault: nothing in process survives a SIGKILL.
    ScopedEnv env("WP_CELL_FAULT", "crash");
    EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
                testing::ExitedWithCode(1), "WP_CELL_FAULT='crash'");
  }
  {
    ScopedEnv env("WP_CELL_FAULT", "transient:12x");
    EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
                testing::ExitedWithCode(1), "bad failure count");
  }
  // hang and persistent take no ":N" at all.
  ScopedEnv env("WP_CELL_FAULT", "hang:1");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1), "WP_CELL_FAULT='hang:1'");
}

// A hang ends only at its watchdog: without WP_CELL_TIMEOUT_MS the
// bench would wedge on its first faulted cell, so it exits at startup
// naming both knobs.
TEST(SupervisorEnvDeathTest, HangWithoutTimeoutExits) {
  ScopedEnv env("WP_CELL_FAULT", "hang");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1),
              "WP_CELL_FAULT=hang.*WP_CELL_TIMEOUT_MS");
}

TEST(SupervisorEnv, ParsesTheNewIsolationAndFaultKnobs) {
  ScopedEnv timeout("WP_CELL_TIMEOUT_MS", "500");
  ScopedEnv env("WP_CELL_FAULT", "hang");
  const auto c = driver::SupervisorConfig::fromEnv();
  EXPECT_EQ(c.cell_fault, fault::CellFault::kHang);
  EXPECT_EQ(c.cell_timeout_ms, 500u);
}

// Memo keys, quarantine errors and service replies carry the fault's
// value, so a hang cell's key ends in "/c4:1" for good.
static_assert(static_cast<int>(fault::CellFault::kHang) == 4);

// WP_ISOLATE and WP_LEASE_TIMEOUT_MS name retired knobs that benchmark
// harnesses still set, so any value is ignored: the cell runs in this
// process and its record is published without a lock.
TEST(SupervisorEnv, RetiredIsolationAndLeaseKnobsAreIgnored) {
  const std::string dir = testing::TempDir() + "retired_knobs_store";
  if (std::system(("rm -rf '" + dir + "'").c_str()) != 0) ADD_FAILURE();
  ScopedEnv isolate("WP_ISOLATE", "yes");
  ScopedEnv lease("WP_LEASE_TIMEOUT_MS", "garbage");
  ScopedEnv store("WP_STORE", dir.c_str());

  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 1);
  const auto& p = suite.prepared().at(0);
  const auto view = suite.tryRun(p, kXScale, wpSpec());
  ASSERT_FALSE(view.quarantined);
  EXPECT_EQ(view.attempts, 1u);
  EXPECT_EQ(suite.metrics().counter("machines.simulated").value(), 1u);

  ASSERT_NE(suite.store(), nullptr);
  EXPECT_FALSE(suite.store()->degraded());
  struct stat st {};
  const std::string record = suite.store()->recordPathFor(
      driver::SweepExecutor::keyOf(p.name, kXScale, wpSpec()),
      driver::imageDigest(p.imageFor(wpSpec().layout)));
  EXPECT_EQ(::stat(record.c_str(), &st), 0) << "the cell's record is published";
  EXPECT_NE(::stat((record + ".lock").c_str(), &st), 0);
}

}  // namespace
}  // namespace wp
