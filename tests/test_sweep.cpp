// Tests for the parallel sweep executor: memo-key uniqueness,
// deterministic aggregation independent of the worker-thread count, the
// WP_JSON cell report, the WP_TRACE event log, and the fail-loud policy
// for unwritable report paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver/sweep.hpp"
#include "test_util.hpp"

namespace wp {
namespace {

std::vector<std::string> fastSubset() { return {"crc", "bitcount"}; }

// ---------------------------------------------------------------------
// keyOf: every field that can change a result must change the key.

TEST(SweepKey, DistinctSpecsGetDistinctKeys) {
  std::vector<driver::SchemeSpec> specs;
  specs.push_back(driver::SchemeSpec::baseline());
  specs.push_back(driver::SchemeSpec::wayMemoization());
  specs.push_back(driver::SchemeSpec::wayPrediction());
  specs.push_back(driver::SchemeSpec::wayPlacement(1024));
  specs.push_back(driver::SchemeSpec::wayPlacement(2048));

  {  // each ablation/extension knob on its own
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.intraline_skip = false;
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayMemoization();
    s.wm_precise_invalidation = true;
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::baseline();
    s.drowsy_window = 2048;
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.layout = "random";
    specs.push_back(s);
  }

  // Fault schedules: period, seed and each class flag are key material.
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.fault = fault::FaultSpec::allClasses(101);
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.fault = fault::FaultSpec::allClasses(202);
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.fault = fault::FaultSpec::allClasses(101, 7);
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.fault.period = 101;
    s.fault.flip_way_hint = true;
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.fault.period = 101;
    s.fault.resize_storm = true;
    specs.push_back(s);
  }

  // Cell-fault schedules (the supervision layer): kind and failure
  // count are key material, so a faulted cell never aliases the clean
  // one in the memo or the result store.
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.fault.cell_fault = fault::CellFault::kTransient;
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.fault.cell_fault = fault::CellFault::kTransient;
    s.fault.cell_fault_failures = 2;
    specs.push_back(s);
  }
  {
    driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
    s.fault.cell_fault = fault::CellFault::kPersistent;
    specs.push_back(s);
  }

  std::set<std::string> keys;
  for (const driver::SchemeSpec& s : specs) {
    keys.insert(driver::SweepExecutor::keyOf("crc", kXScale, s));
  }
  EXPECT_EQ(keys.size(), specs.size())
      << "two distinct SchemeSpecs collided on one memo key";

  // Workload and geometry are key material too.
  const driver::SchemeSpec base = driver::SchemeSpec::baseline();
  keys.insert(driver::SweepExecutor::keyOf("sha", kXScale, base));
  keys.insert(driver::SweepExecutor::keyOf(
      "crc", cache::CacheGeometry{16 * 1024, 32, 32}, base));
  keys.insert(driver::SweepExecutor::keyOf(
      "crc", cache::CacheGeometry{32 * 1024, 16, 32}, base));
  keys.insert(driver::SweepExecutor::keyOf(
      "crc", cache::CacheGeometry{32 * 1024, 32, 16}, base));
  EXPECT_EQ(keys.size(), specs.size() + 4);
}

// ---------------------------------------------------------------------
// Determinism: the same grid aggregated on 1 and on 4 threads must give
// bit-identical numbers (memoized cells + fixed aggregation order).

TEST(SweepExecutor, AggregationIsBitIdenticalAcrossJobCounts) {
  const driver::SchemeSpec wp = driver::SchemeSpec::wayPlacement(16 * 1024);
  const driver::SchemeSpec wm = driver::SchemeSpec::wayMemoization();
  const auto energy = [](const driver::Normalized& n) {
    return n.icache_energy;
  };
  const auto ed = [](const driver::Normalized& n) { return n.ed_product; };

  driver::SweepExecutor serial(fastSubset(), energy::EnergyParams{}, 0, 1);
  driver::SweepExecutor parallel(fastSubset(), energy::EnergyParams{}, 0, 4);
  EXPECT_EQ(serial.jobs(), 1u);
  EXPECT_EQ(parallel.jobs(), 4u);

  parallel.runAll({{kXScale, wp}, {kXScale, wm}});

  EXPECT_EQ(serial.averageNormalized(kXScale, wp, energy),
            parallel.averageNormalized(kXScale, wp, energy));
  EXPECT_EQ(serial.averageNormalized(kXScale, wm, energy),
            parallel.averageNormalized(kXScale, wm, energy));
  EXPECT_EQ(serial.averageNormalized(kXScale, wp, ed),
            parallel.averageNormalized(kXScale, wp, ed));

  // The memoized raw results are identical too, not just the averages.
  for (std::size_t i = 0; i < serial.prepared().size(); ++i) {
    const auto& ps = serial.prepared()[i];
    const auto& pp = parallel.prepared()[i];
    ASSERT_EQ(ps.name, pp.name) << "preparation order must be stable";
    const driver::RunResult& rs = serial.run(ps, kXScale, wp);
    const driver::RunResult& rp = parallel.run(pp, kXScale, wp);
    EXPECT_EQ(rs.stats.cycles, rp.stats.cycles);
    EXPECT_EQ(rs.stats.dataflow_hash, rp.stats.dataflow_hash);
    EXPECT_EQ(rs.output, rp.output);
  }
}

TEST(SweepExecutor, RunMemoizesAndReturnsStableReferences) {
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 2);
  const auto& p = suite.prepared().at(0);
  const driver::RunResult& a =
      suite.run(p, kXScale, driver::SchemeSpec::baseline());
  const driver::RunResult& b =
      suite.run(p, kXScale, driver::SchemeSpec::baseline());
  EXPECT_EQ(&a, &b) << "second request must hit the memo";
}

// ---------------------------------------------------------------------
// JSON report round-trip.

// Minimal extraction of `"key": <number>` at/after `from`.
double jsonNumber(const std::string& json, const std::string& key,
                  std::size_t from = 0) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle, from);
  EXPECT_NE(at, std::string::npos) << "missing JSON key " << key;
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

TEST(SweepExecutor, JsonReportRoundTripsCellMetrics) {
  driver::SweepExecutor suite(fastSubset(), energy::EnergyParams{}, 0, 2);
  const driver::SchemeSpec wp = driver::SchemeSpec::wayPlacement(16 * 1024);
  suite.runAll({{kXScale, wp}});

  std::ostringstream os;
  suite.writeJsonReport(os);
  const std::string json = os.str();

  EXPECT_EQ(jsonNumber(json, "seed"), 0.0);
  EXPECT_EQ(jsonNumber(json, "jobs"), 2.0);
  EXPECT_GT(jsonNumber(json, "wall_seconds"), 0.0);
  EXPECT_EQ(jsonNumber(json, "workloads"), 2.0);

  // Each workload's cell carries exactly the normalized metrics the
  // tables are built from, at full precision. Search inside the cells
  // array — the prepare section also names every workload.
  const std::size_t cells_at = json.find("\"cells\": [");
  ASSERT_NE(cells_at, std::string::npos);
  for (const auto& p : suite.prepared()) {
    const driver::Normalized n = driver::normalize(
        suite.run(p, kXScale, wp),
        suite.run(p, kXScale, driver::SchemeSpec::baseline()), p.name);
    const std::size_t cell =
        json.find("\"workload\": \"" + p.name + "\"", cells_at);
    ASSERT_NE(cell, std::string::npos) << "no JSON cell for " << p.name;
    EXPECT_EQ(jsonNumber(json, "icache_energy", cell), n.icache_energy);
    EXPECT_EQ(jsonNumber(json, "total_energy", cell), n.total_energy);
    EXPECT_EQ(jsonNumber(json, "delay", cell), n.delay);
    EXPECT_EQ(jsonNumber(json, "ed_product", cell), n.ed_product);
    EXPECT_EQ(jsonNumber(json, "wp_area_bytes", cell), 16384.0);
  }

  // Baseline cells are not reported (they normalize to 1 by definition).
  EXPECT_EQ(json.find("\"scheme\": \"baseline\""), std::string::npos);
}

TEST(SweepExecutor, JsonReportCarriesObservabilityFields) {
  driver::SweepExecutor suite(fastSubset(), energy::EnergyParams{}, 0, 2);
  const driver::SchemeSpec wp = driver::SchemeSpec::wayPlacement(16 * 1024);
  suite.runAll({{kXScale, wp}});

  std::ostringstream os;
  suite.writeJsonReport(os);
  const std::string json = os.str();

  // Host aggregate: guest instructions, simulate time, MIPS, memo stats
  // and the build→price phase breakdown.
  EXPECT_GT(jsonNumber(json, "guest_instructions"), 0.0);
  EXPECT_GT(jsonNumber(json, "simulate_seconds"), 0.0);
  EXPECT_GT(jsonNumber(json, "guest_mips"), 0.0);
  EXPECT_EQ(jsonNumber(json, "cells_computed"), 4.0)
      << "2 workloads x (baseline + way-placement)";
  const std::size_t phases = json.find("\"phase_seconds\"");
  ASSERT_NE(phases, std::string::npos);
  EXPECT_GE(jsonNumber(json, "build", phases), 0.0);
  EXPECT_GT(jsonNumber(json, "profile", phases), 0.0);
  EXPECT_GE(jsonNumber(json, "layout", phases), 0.0);
  EXPECT_GE(jsonNumber(json, "price", phases), 0.0);

  // Per-workload prepare records.
  const std::size_t prep = json.find("\"prepare\": [");
  ASSERT_NE(prep, std::string::npos);
  EXPECT_GT(jsonNumber(json, "profile_seconds", prep), 0.0);
  EXPECT_GT(jsonNumber(json, "profile_instructions", prep), 0.0);

  // Per-cell wall-clock, phase breakdown and guest throughput.
  const std::size_t cell = json.find("\"scheme\": \"way-placement\"");
  ASSERT_NE(cell, std::string::npos);
  EXPECT_GT(jsonNumber(json, "wall_seconds", cell), 0.0);
  EXPECT_GT(jsonNumber(json, "simulate_seconds", cell), 0.0);
  EXPECT_GE(jsonNumber(json, "price_seconds", cell), 0.0);
  EXPECT_GT(jsonNumber(json, "guest_mips", cell), 0.0);
  EXPECT_GT(jsonNumber(json, "instructions", cell), 0.0);
  // Two pool workers: the computing worker is 0 or 1.
  EXPECT_GE(jsonNumber(json, "worker", cell), 0.0);
  EXPECT_LE(jsonNumber(json, "worker", cell), 1.0);

  // The LayoutReport ride-alongs: canonical strategy name, chains,
  // repairs, and the WP-area dynamic-instruction coverage.
  EXPECT_NE(json.find("\"layout\": \"way_placement\"", cell),
            std::string::npos);
  EXPECT_GT(jsonNumber(json, "layout_chains", cell), 0.0);
  EXPECT_GE(jsonNumber(json, "layout_repairs", cell), 0.0);
  EXPECT_GT(jsonNumber(json, "wp_area_coverage", cell), 0.0);
  EXPECT_LE(jsonNumber(json, "wp_area_coverage", cell), 1.0);
}

TEST(SweepExecutor, HostBlockSumsTheCellsItComputed) {
  // One set of books: the report's host block is the sum of the cells'
  // own RunResults, and the stderr summary prints the report's MIPS.
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 1);
  const driver::SchemeSpec wp = driver::SchemeSpec::wayPlacement(16 * 1024);
  suite.runAll({{kXScale, wp}});
  const auto& p = suite.prepared().at(0);
  const driver::RunResult& base =
      suite.run(p, kXScale, driver::SchemeSpec::baseline());
  const driver::RunResult& cell = suite.run(p, kXScale, wp);

  std::ostringstream os;
  suite.writeJsonReport(os);
  const std::string json = os.str();
  const std::size_t host = json.find("\"host\": {");
  ASSERT_NE(host, std::string::npos);
  // Two addends: the sum is the same in any order.
  EXPECT_EQ(jsonNumber(json, "guest_instructions", host),
            static_cast<double>(base.stats.instructions +
                                cell.stats.instructions));
  EXPECT_EQ(jsonNumber(json, "simulate_seconds", host),
            base.simulate_seconds + cell.simulate_seconds);

  std::ostringstream summary;
  suite.printSummary(summary);
  char mips[32];
  std::snprintf(mips, sizeof mips, "(%.1f MIPS)",
                jsonNumber(json, "guest_mips", host));
  EXPECT_NE(summary.str().find(mips), std::string::npos)
      << summary.str() << " does not print the report's " << mips;
}

TEST(SweepKey, LayoutStrategiesAreKeyMaterialAndAliasesCanonicalize) {
  driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(1024);
  std::set<std::string> keys;
  for (const layout::LayoutStrategy* strategy : layout::strategies()) {
    s.layout = strategy->name;
    keys.insert(driver::SweepExecutor::keyOf("crc", kXScale, s));
  }
  EXPECT_EQ(keys.size(), layout::strategies().size())
      << "two layout strategies collided on one memo key";

  // The legacy alias spelling memoizes to the same cell as the
  // canonical name — same image, same result, one simulation.
  s.layout = "way_placement";
  const std::string canonical =
      driver::SweepExecutor::keyOf("crc", kXScale, s);
  s.layout = "way-placement";
  EXPECT_EQ(driver::SweepExecutor::keyOf("crc", kXScale, s), canonical);

  // Parameter overrides are key material: a tuned spec must never
  // collide with the default-params cell it was derived from...
  s.layout = "way_placement{chain_hot_threshold=64}";
  EXPECT_NE(driver::SweepExecutor::keyOf("crc", kXScale, s), canonical);
  // ...but spelling out a registered default is the same experiment,
  // and any spelling of the same overrides normalizes to one key.
  s.layout = "way_placement{chain_hot_threshold=0}";
  EXPECT_EQ(driver::SweepExecutor::keyOf("crc", kXScale, s), canonical);
  s.layout = "exttsp{tsp_forward_weight=0.2,tsp_forward_bytes=512}";
  const std::string tuned = driver::SweepExecutor::keyOf("crc", kXScale, s);
  s.layout = "exttsp{tsp_forward_bytes=512,tsp_forward_weight=0.2}";
  EXPECT_EQ(driver::SweepExecutor::keyOf("crc", kXScale, s), tuned);
}

// ---------------------------------------------------------------------
// WP_TRACE: the JSONL event log records the sweep without changing it.

TEST(SweepTrace, WritesEventsAndDoesNotPerturbResults) {
  const std::string path = testing::TempDir() + "sweep_trace_test.jsonl";
  const driver::SchemeSpec wp = driver::SchemeSpec::wayPlacement(16 * 1024);

  u64 traced_cycles = 0;
  {
    ScopedEnv env("WP_TRACE", path.c_str());
    driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 2);
    EXPECT_TRUE(suite.tracing());
    suite.runAll({{kXScale, wp}});
    traced_cycles = suite.run(suite.prepared().at(0), kXScale, wp)
                        .stats.cycles;
  }  // destructor writes sweep_end

  driver::SweepExecutor plain({"crc"}, energy::EnergyParams{}, 0, 2);
  EXPECT_FALSE(plain.tracing());
  plain.runAll({{kXScale, wp}});
  EXPECT_EQ(plain.run(plain.prepared().at(0), kXScale, wp).stats.cycles,
            traced_cycles)
      << "tracing must not perturb the simulated machine";

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file missing: " << path;
  std::string line;
  std::vector<std::string> events;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    const std::size_t ev = line.find("\"ev\": \"");
    ASSERT_NE(ev, std::string::npos) << line;
    events.push_back(line.substr(ev + 7, line.find('"', ev + 7) - (ev + 7)));
  }
  std::remove(path.c_str());

  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front(), "sweep_start");
  EXPECT_EQ(events.back(), "sweep_end");
  const auto count = [&events](const std::string& name) {
    return std::count(events.begin(), events.end(), name);
  };
  EXPECT_EQ(count("prepare"), 1);
  EXPECT_EQ(count("cell_start"), 2) << "baseline + way-placement";
  EXPECT_EQ(count("cell_end"), 2);
  EXPECT_GE(count("memo_hit"), 1) << "the explicit run() re-read a cell";
}

// ---------------------------------------------------------------------
// Fail-loud report paths: a requested artifact that cannot be produced
// exits with a message naming the knob, instead of silently vanishing.

using SweepReportDeathTest = ::testing::Test;

TEST(SweepReportDeathTest, UnwritableJsonPathExitsNamingWpJson) {
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 1);
  ScopedEnv env("WP_JSON", "/nonexistent-dir-zzz/report.json");
  EXPECT_EXIT(suite.emitJsonIfRequested(), testing::ExitedWithCode(1),
              "WP_JSON.*cannot open");
}

TEST(SweepReportDeathTest, UnwritableTracePathExitsNamingWpTrace) {
  ScopedEnv env("WP_TRACE", "/nonexistent-dir-zzz/trace.jsonl");
  EXPECT_EXIT(
      driver::SweepExecutor({"crc"}, energy::EnergyParams{}, 0, 1),
      testing::ExitedWithCode(1), "WP_TRACE.*cannot open");
}

// ---------------------------------------------------------------------
// Strict supervision knobs: garbage exits 1 naming the knob, never a
// silent default (same policy as WP_JOBS/WP_SEED).

using SupervisorEnvDeathTest = ::testing::Test;

TEST(SupervisorEnvDeathTest, GarbageRetriesExits) {
  ScopedEnv env("WP_RETRIES", "abc");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1), "WP_RETRIES");
}

TEST(SupervisorEnvDeathTest, OutOfRangeRetriesExits) {
  ScopedEnv env("WP_RETRIES", "101");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1), "WP_RETRIES");
}

TEST(SupervisorEnvDeathTest, GarbageTimeoutExits) {
  ScopedEnv env("WP_CELL_TIMEOUT_MS", "50ms");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1), "WP_CELL_TIMEOUT_MS");
}

TEST(SupervisorEnvDeathTest, NegativeTimeoutExits) {
  ScopedEnv env("WP_CELL_TIMEOUT_MS", "-5");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1), "WP_CELL_TIMEOUT_MS");
}

TEST(SupervisorEnvDeathTest, GarbageCellFaultExits) {
  ScopedEnv env("WP_CELL_FAULT", "flaky");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1), "WP_CELL_FAULT");
}

TEST(SupervisorEnvDeathTest, ZeroTransientFailureCountExits) {
  ScopedEnv env("WP_CELL_FAULT", "transient:0");
  EXPECT_EXIT((void)driver::SupervisorConfig::fromEnv(),
              testing::ExitedWithCode(1), "WP_CELL_FAULT.*failure count");
}

TEST(JobsEnvDeathTest, SignedJobCountExitsNamingTheKnob) {
  for (const char* bad : {"-0", "+2"}) {
    ScopedEnv env("WP_JOBS", bad);
    EXPECT_EXIT((void)driver::jobsFromEnv(), testing::ExitedWithCode(1),
                "WP_JOBS='[-+][02]' is not a valid worker count")
        << bad;
  }
}

TEST(SupervisorEnvDeathTest, ExecutorParsesKnobsBeforePreparing) {
  // The parse happens in the constructor, before any expensive work.
  ScopedEnv env("WP_RETRIES", "not-a-number");
  EXPECT_EXIT(driver::SweepExecutor({"crc"}, energy::EnergyParams{}, 0, 1),
              testing::ExitedWithCode(1), "WP_RETRIES");
}

}  // namespace
}  // namespace wp
