// Tests for process-isolated sweep workers (driver/worker.hpp +
// WP_ISOLATE): the fork/pipe protocol round-trips results
// bit-identically, every way a worker can die (SimError, SIGKILL,
// nonzero exit, hang) is classified into a tagged failure, and the
// sweep executor feeds those failures through the same
// retry/quarantine ladder as in-process errors — so a crash or
// a wedged loop costs one attempt of one cell, never the bench.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "driver/checkpoint.hpp"
#include "driver/sweep.hpp"
#include "driver/worker.hpp"
#include "support/ensure.hpp"
#include "test_util.hpp"

namespace wp {
namespace {

driver::SchemeSpec wpSpec() {
  return driver::SchemeSpec::wayPlacement(16 * 1024);
}

driver::SchemeSpec cellFaulted(fault::CellFault kind, u32 failures) {
  driver::SchemeSpec s = wpSpec();
  s.fault.cell_fault = kind;
  s.fault.cell_fault_failures = failures;
  return s;
}

double icacheEnergy(const driver::Normalized& n) { return n.icache_energy; }

/// A fake result with enough distinct guest-side fields to notice any
/// serialization slip (the digest covers all of them).
driver::RunResult fakeResult() {
  driver::RunResult r;
  r.stats.instructions = 123456789;
  r.stats.cycles = 987654321;
  r.output = {0x01, 0xfe, 0x7f};
  r.layout_strategy = "original";
  r.layout_chains = 7;
  r.wp_area_coverage = 0.8125;
  r.simulate_seconds = 0.25;
  return r;
}

// ---------------------------------------------------------------------
// The protocol itself, driven directly with synthetic attempt bodies.

TEST(Worker, RoundTripsAResultBitIdentically) {
  const driver::RunResult sent = fakeResult();
  const driver::WorkerResult got =
      driver::runCellInWorker("unit/cell", 42, 0, [&] { return sent; });
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_EQ(driver::statsDigest(got.result), driver::statsDigest(sent));
  EXPECT_EQ(got.result.output, sent.output);
  EXPECT_EQ(got.result.stats.cycles, sent.stats.cycles);
  EXPECT_EQ(got.result.layout_strategy, sent.layout_strategy);
  EXPECT_GE(got.wall_seconds, 0.0);
}

TEST(Worker, CarriesAChildSimErrorBackVerbatim) {
  const driver::WorkerResult got = driver::runCellInWorker(
      "unit/cell", 0, 0, []() -> driver::RunResult {
        throw SimError("boom: injected by test");
      });
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(got.error, "boom: injected by test")
      << "the child's own message must travel back untagged";
}

TEST(Worker, ClassifiesASignalDeathWithTheCellKey) {
  const driver::WorkerResult got = driver::runCellInWorker(
      "fig5/crashing-cell", 0, 0, []() -> driver::RunResult {
        ::raise(SIGKILL);
        return {};
      });
  EXPECT_FALSE(got.ok);
  EXPECT_NE(got.error.find("fig5/crashing-cell"), std::string::npos);
  EXPECT_NE(got.error.find("died by signal 9"), std::string::npos)
      << got.error;
}

TEST(Worker, ClassifiesASilentNonzeroExit) {
  const driver::WorkerResult got = driver::runCellInWorker(
      "unit/cell", 0, 0, []() -> driver::RunResult {
        std::_Exit(5);  // dies without writing the protocol line
      });
  EXPECT_FALSE(got.ok);
  EXPECT_NE(got.error.find("exited with status 5"), std::string::npos)
      << got.error;
}

TEST(Worker, KillsAHungAttemptAtTheParentSideDeadline) {
  // The attempt never retires an instruction, so only the parent's
  // wall-clock deadline — enforced from outside the crash domain — can
  // end it. This is the case the in-process watchdog cannot catch.
  const driver::WorkerResult got = driver::runCellInWorker(
      "unit/hung-cell", 0, 100, []() -> driver::RunResult {
        for (;;) ::pause();
      });
  EXPECT_FALSE(got.ok);
  EXPECT_NE(got.error.find("hung"), std::string::npos);
  EXPECT_NE(got.error.find("WP_CELL_TIMEOUT_MS=100"), std::string::npos)
      << got.error;
}

// ---------------------------------------------------------------------
// Isolation inside the executor: parity with in-process runs.

TEST(IsolatedSweep, TablesMatchInProcessRunsBitIdentically) {
  driver::SweepExecutor plain({"crc"}, energy::EnergyParams{}, 0, 1);
  driver::SupervisorConfig cfg;
  cfg.isolate = true;
  driver::SweepExecutor isolated({"crc"}, energy::EnergyParams{}, 0, 1, &cfg);

  const double e_plain =
      plain.averageNormalized(kXScale, wpSpec(), icacheEnergy);
  const double e_isolated =
      isolated.averageNormalized(kXScale, wpSpec(), icacheEnergy);
  EXPECT_EQ(e_plain, e_isolated)
      << "the %.17g pipe protocol must round-trip every double exactly";

  const auto& pp = plain.prepared().at(0);
  const auto& ip = isolated.prepared().at(0);
  EXPECT_EQ(driver::statsDigest(plain.run(pp, kXScale, wpSpec())),
            driver::statsDigest(isolated.run(ip, kXScale, wpSpec())));
  EXPECT_EQ(isolated.metrics().counter("cells.isolated").value(), 2u)
      << "baseline + way-placement both ran in workers";

  // An isolated cell's RunResult carries its own host cost, so both
  // reports sum the same guest instructions from the same cells.
  const auto hostInstructions = [](const driver::SweepExecutor& suite) {
    std::ostringstream os;
    suite.writeJsonReport(os);
    const std::string json = os.str();
    const std::string needle = "\"guest_instructions\": ";
    const std::size_t at = json.find(needle);
    EXPECT_NE(at, std::string::npos) << json;
    return at == std::string::npos
               ? 0ull
               : std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
  };
  EXPECT_GT(hostInstructions(plain), 0u);
  EXPECT_EQ(hostInstructions(isolated), hostInstructions(plain));
}

TEST(IsolatedSweep, CrashFaultHealsOnRetryInsteadOfKillingTheBench) {
  driver::SupervisorConfig cfg;
  cfg.isolate = true;
  cfg.retries = 2;
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 1, &cfg);
  const auto& p = suite.prepared().at(0);

  // Attempt 1 dies by SIGKILL *in the worker*; attempt 2 heals. Without
  // isolation this fault takes the whole process down — which is
  // exactly what WP_ISOLATE exists to prevent.
  const auto healed =
      suite.tryRun(p, kXScale, cellFaulted(fault::CellFault::kCrash, 1));
  ASSERT_FALSE(healed.quarantined);
  EXPECT_EQ(healed.attempts, 2u);

  const auto clean = suite.tryRun(p, kXScale, wpSpec());
  ASSERT_FALSE(clean.quarantined);
  EXPECT_EQ(driver::statsDigest(*healed.result),
            driver::statsDigest(*clean.result))
      << "the healed retry must replay the same deterministic simulation";
  EXPECT_EQ(suite.metrics().counter("cells.healed").value(), 1u);
}

TEST(IsolatedSweep, PersistentCrashQuarantinesWithSignalIdentity) {
  driver::SupervisorConfig cfg;
  cfg.isolate = true;
  cfg.retries = 1;
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 1, &cfg);
  const auto& p = suite.prepared().at(0);
  // failures = 0: every attempt crashes, so the cell must quarantine.
  const driver::SchemeSpec bad = cellFaulted(fault::CellFault::kCrash, 0);
  const std::string key = driver::SweepExecutor::keyOf(p.name, kXScale, bad);

  const auto view = suite.tryRun(p, kXScale, bad);
  ASSERT_TRUE(view.quarantined);
  EXPECT_EQ(view.attempts, 2u);
  ASSERT_NE(view.error, nullptr);
  EXPECT_NE(view.error->find(key), std::string::npos) << *view.error;
  EXPECT_NE(view.error->find("died by signal 9"), std::string::npos)
      << *view.error;

  // The bench survives: the clean scheme still prices on this executor.
  EXPECT_FALSE(suite.tryRun(p, kXScale, wpSpec()).quarantined);
}

TEST(IsolatedSweep, HangFaultIsKilledByTheParentDeadlineAndQuarantined) {
  driver::SupervisorConfig cfg;
  cfg.isolate = true;
  cfg.retries = 0;
  cfg.cell_timeout_ms = 200;
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 1, &cfg);
  const auto& p = suite.prepared().at(0);

  const auto view =
      suite.tryRun(p, kXScale, cellFaulted(fault::CellFault::kHang, 1));
  ASSERT_TRUE(view.quarantined);
  ASSERT_NE(view.error, nullptr);
  EXPECT_NE(view.error->find("hung"), std::string::npos) << *view.error;
  EXPECT_NE(view.error->find("WP_CELL_TIMEOUT_MS=200"), std::string::npos)
      << *view.error;
  // (No clean-cell check here: a 200ms budget is too tight for a real
  // simulation, and the crash test above already proves the bench
  // survives a dead worker.)
}

}  // namespace
}  // namespace wp
