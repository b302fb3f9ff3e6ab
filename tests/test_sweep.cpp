// Tests for the parallel sweep executor: memo-key uniqueness,
// deterministic aggregation independent of the worker-thread count, one
// simulation per distinct machine, the WP_JSON cell report, the WP_TRACE
// event log, and the fail-loud policy for unwritable report paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "driver/checkpoint.hpp"
#include "driver/service.hpp"
#include "driver/sweep.hpp"
#include "support/shutdown.hpp"
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
// Machine dedupe: requested cells that differ only in WP areas that
// clamp alike, or in layouts whose images are byte-identical, share one
// simulation, and each still reads exactly what Runner::run gives it.

driver::SchemeSpec wayPlacementWith(u32 area_kb, const std::string& layout) {
  driver::SchemeSpec s = driver::SchemeSpec::wayPlacement(area_kb * 1024);
  s.layout = layout;
  return s;
}

TEST(SweepExecutor, SharedMachinesMatchRunnerRunForEveryRequestedCell) {
  const driver::SupervisorConfig pinned;
  driver::SweepExecutor suite({"crc", "bitcount", "sha"},
                              energy::EnergyParams{}, 0, 4, &pinned);
  const u32 areas_kb[] = {1, 2, 8, 16};
  std::vector<driver::SweepExecutor::Cell> grid;
  for (const layout::LayoutStrategy* s : layout::strategies()) {
    for (const u32 kb : areas_kb) {
      grid.push_back({kXScale, wayPlacementWith(kb, s->name)});
    }
  }
  suite.runAll(grid);
  ASSERT_TRUE(suite.quarantined().empty());

  // The distinct machines, counted from the prepared images themselves.
  std::set<std::tuple<std::string, u32, u64>> machines;
  struct Check {
    const driver::PreparedWorkload* p;
    driver::SchemeSpec spec;
  };
  std::vector<Check> checks;
  for (const driver::PreparedWorkload& p : suite.prepared()) {
    for (const driver::SweepExecutor::Cell& c : grid) {
      const mem::Image& image = p.imageFor(c.spec.layout);
      machines.emplace(p.name,
                       driver::clampWpAreaToImage(c.spec.wp_area_bytes, image),
                       driver::imageDigest(image));
      checks.push_back({&p, c.spec});
    }
  }
  const u64 baselines = suite.prepared().size();
  EXPECT_EQ(suite.metrics().counter("machines.simulated").value(),
            machines.size() + baselines);
  EXPECT_EQ(suite.metrics().counter("cells.computed").value(),
            checks.size() + baselines);
  EXPECT_LT(machines.size(), checks.size())
      << "the grid must repeat machines for this test to mean anything";

  // The reference runs fan out over a few threads; each check reads the
  // executor's cell and compares it with its own Runner::run.
  std::vector<std::string> mismatches(checks.size());
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < checks.size(); i += 4) {
        const Check& c = checks[i];
        const driver::RunResult ref = suite.runner().run(*c.p, kXScale, c.spec);
        const driver::RunResult& got = suite.run(*c.p, kXScale, c.spec);
        if (driver::statsDigest(got) != driver::statsDigest(ref) ||
            got.output != ref.output) {
          mismatches[i] = driver::SweepExecutor::keyOf(c.p->name, kXScale,
                                                       c.spec);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& key : mismatches) {
    EXPECT_EQ(key, "") << "a shared machine's result differs from Runner::run";
  }
}

TEST(SweepExecutor, CoRunAtAreasThatClampAlikeSharesOneSimulation) {
  driver::SweepExecutor suite({"crc", "bitcount"}, energy::EnergyParams{}, 0,
                              2);
  std::vector<driver::SweepExecutor::Cell> grid;
  for (const u32 kb : {8u, 16u}) {
    driver::SchemeSpec spec = driver::SchemeSpec::wayPlacement(kb * 1024);
    spec.corun_quantum = 2000;
    spec.corun_partners = "bitcount";
    grid.push_back({kXScale, spec});
  }
  suite.runAll(grid);
  const driver::PreparedWorkload& crc = suite.prepared().at(0);
  std::vector<const driver::RunResult*> results;
  for (const driver::SweepExecutor::Cell& c : grid) {
    const auto view = suite.tryRun(crc, kXScale, c.spec);
    ASSERT_FALSE(view.quarantined);
    results.push_back(view.result);
  }
  EXPECT_EQ(results[0], results[1])
      << "same layout, same clamped areas: one shared RunResult";
  // Each primary (crc, and bitcount co-run with itself): its co-run
  // baseline plus two requested cells on one machine.
  EXPECT_EQ(suite.metrics().counter("cells.computed").value(), 6u);
  EXPECT_EQ(suite.metrics().counter("machines.simulated").value(), 4u);
}

TEST(SweepExecutor, PersistentFaultOnSharedMachineQuarantinesEachCell) {
  driver::SupervisorConfig cfg;
  cfg.retries = 1;
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 1, &cfg);
  const driver::PreparedWorkload& p = suite.prepared().at(0);
  std::vector<driver::SweepExecutor::Cell> grid;
  for (const u32 kb : {8u, 16u}) {
    driver::SchemeSpec bad = driver::SchemeSpec::wayPlacement(kb * 1024);
    bad.fault.cell_fault = fault::CellFault::kPersistent;
    grid.push_back({kXScale, bad});
  }
  suite.runAll(grid);
  std::vector<std::string> keys;
  for (const driver::SweepExecutor::Cell& c : grid) {
    keys.push_back(driver::SweepExecutor::keyOf(p.name, kXScale, c.spec));
    const auto view = suite.tryRun(p, kXScale, c.spec);
    ASSERT_TRUE(view.quarantined);
    EXPECT_EQ(view.attempts, 2u);
    EXPECT_EQ(view.error->rfind("cell '" + keys.back() + "' (attempt 2/2): ",
                                0),
              0u)
        << "each error names its own cell: " << *view.error;
  }
  EXPECT_EQ(suite.metrics().counter("cells.failed_attempts").value(), 2u)
      << "the shared machine spends its attempts once";
  EXPECT_EQ(suite.metrics().counter("cells.quarantined").value(), 2u);
  const auto q = suite.quarantined();
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(std::set<std::string>({q[0].key, q[1].key}),
            std::set<std::string>(keys.begin(), keys.end()));
}

TEST(SweepExecutor, StorePublishesEveryRequestedCellOfASharedMachine) {
  const std::string dir = testing::TempDir() + "sweep_machine_store";
  std::filesystem::remove_all(dir);
  ScopedEnv env("WP_STORE", dir.c_str());
  const std::vector<driver::SweepExecutor::Cell> grid = {
      {kXScale, driver::SchemeSpec::wayPlacement(8 * 1024)},
      {kXScale, driver::SchemeSpec::wayPlacement(16 * 1024)}};
  {
    driver::SweepExecutor cold({"crc"}, energy::EnergyParams{}, 0, 2);
    cold.runAll(grid);
    EXPECT_EQ(cold.metrics().counter("cells.computed").value(), 3u);
    EXPECT_EQ(cold.metrics().counter("machines.simulated").value(), 2u);
  }
  std::size_t records = 0;
  for (const auto& f : std::filesystem::directory_iterator(dir)) {
    records += f.path().extension() == ".rec" ? 1 : 0;
  }
  EXPECT_EQ(records, 3u) << "one record per requested cell";

  driver::SweepExecutor warm({"crc"}, energy::EnergyParams{}, 0, 2);
  warm.runAll(grid);
  EXPECT_EQ(warm.metrics().counter("cells.computed").value(), 0u);
  EXPECT_EQ(warm.metrics().counter("cells.from_store").value(), 3u);
  EXPECT_EQ(warm.metrics().counter("machines.simulated").value(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(SweepExecutor, StatsReplyCountsCellsAndMachines) {
  const driver::SupervisorConfig pinned;
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 1, &pinned);
  driver::SweepService service(driver::ServiceConfig{}, suite,
                               ShutdownLatch::instance());
  const auto served = [&](const std::string& line) {
    const std::string reply = service.handleLine(line);
    EXPECT_NE(reply.find("\"fate\": \"served\""), std::string::npos) << reply;
  };
  const auto expectCounts = [&](unsigned cells, unsigned machines) {
    const std::string stats = service.handleLine("{\"op\": \"stats\"}");
    EXPECT_NE(stats.find("\"cells_computed\": " + std::to_string(cells) + ","),
              std::string::npos)
        << stats;
    EXPECT_NE(stats.find("\"machines_simulated\": " + std::to_string(machines) +
                         ","),
              std::string::npos)
        << stats;
  };
  // Two suite rows are two runAll batches: crc fits in one page, so the
  // 16 KB row's cell shares the 8 KB row's machine.
  for (const char* kb : {"8", "16"}) {
    served(std::string("{\"op\": \"suite\", \"wp_kb\": ") + kb + "}");
  }
  expectCounts(3, 2);
  // An eval is a lone request: its 4 KB cell clamps alike too, but it
  // simulates a machine of its own.
  served("{\"op\": \"eval\", \"workload\": \"crc\", \"wp_kb\": 4}");
  expectCounts(4, 3);
}

// ---------------------------------------------------------------------
// Units: a batch's machines that run one instruction stream share one
// functional pass, and a failing unit dissolves into lone ladders.

TEST(UnitSweep, BadCellsFailAloneAndCleanCellsMatchTheirLoneRuns) {
  driver::SupervisorConfig cfg;
  cfg.retries = 1;
  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 2, &cfg);
  const driver::PreparedWorkload& p = suite.prepared().at(0);
  // A WP area that is not a page multiple: runGroup rejects it, so its
  // unit (crc's one stream) throws and dissolves.
  const driver::SchemeSpec bad_area = driver::SchemeSpec::wayPlacement(1000);
  driver::SchemeSpec transient = driver::SchemeSpec::wayMemoization();
  transient.fault.cell_fault = fault::CellFault::kTransient;
  const std::vector<driver::SchemeSpec> clean = {
      driver::SchemeSpec::wayMemoization(),
      driver::SchemeSpec::wayPlacement(16 * 1024),
      driver::SchemeSpec::wayPrediction(),
      driver::SchemeSpec::wayPlacement(2 * 1024)};
  std::vector<driver::SweepExecutor::Cell> grid = {
      {kXScale, clean[0]}, {kXScale, bad_area}, {kXScale, clean[1]},
      {kXScale, transient}, {kXScale, clean[2]}, {kXScale, clean[3]}};
  suite.runAll(grid);

  const std::string bad_key =
      driver::SweepExecutor::keyOf(p.name, kXScale, bad_area);
  const auto bad = suite.tryRun(p, kXScale, bad_area);
  ASSERT_TRUE(bad.quarantined);
  EXPECT_EQ(bad.attempts, 2u);
  EXPECT_EQ(bad.error->rfind("cell '" + bad_key + "' (attempt 2/2): ", 0), 0u)
      << *bad.error;
  const auto healed = suite.tryRun(p, kXScale, transient);
  ASSERT_FALSE(healed.quarantined);
  EXPECT_EQ(healed.attempts, 2u);

  std::vector<driver::SchemeSpec> lone = clean;
  lone.push_back(driver::SchemeSpec::baseline());
  for (const driver::SchemeSpec& spec : lone) {
    SCOPED_TRACE(driver::SweepExecutor::keyOf(p.name, kXScale, spec));
    const auto view = suite.tryRun(p, kXScale, spec);
    ASSERT_FALSE(view.quarantined);
    EXPECT_EQ(view.attempts, 1u);
    EXPECT_EQ(driver::statsDigest(*view.result),
              driver::statsDigest(suite.runner().run(p, kXScale, spec)));
  }
  // As when every machine ran alone: the bad area's two attempts and
  // the transient fault's first.
  EXPECT_EQ(suite.metrics().counter("cells.failed_attempts").value(), 3u);
  EXPECT_EQ(suite.metrics().counter("cells.quarantined").value(), 1u);
  EXPECT_EQ(suite.metrics().counter("units.dissolved").value(), 1u);
  const auto q = suite.quarantined();
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q[0].key, bad_key);
}

TEST(UnitSweep, ConcurrentBatchesSharingCellsSettleEachOnce) {
  // Two batches on two threads request the same cells in opposite
  // orders: every cell settles once, neither batch waits on the other
  // forever, and the results are the lone runs'.
  driver::SweepExecutor suite({"crc", "bitcount"}, energy::EnergyParams{}, 0,
                              4);
  std::vector<driver::SweepExecutor::Cell> grid;
  for (const u32 kb : {1u, 2u, 4u, 8u}) {
    grid.push_back({kXScale, driver::SchemeSpec::wayPlacement(kb * 1024)});
  }
  grid.push_back({kXScale, driver::SchemeSpec::wayMemoization()});
  grid.push_back({kXScale, driver::SchemeSpec::wayPrediction()});
  std::vector<driver::SweepExecutor::Cell> reversed(grid.rbegin(),
                                                    grid.rend());
  std::thread other([&] { suite.runAll(reversed); });
  suite.runAll(grid);
  other.join();
  ASSERT_TRUE(suite.quarantined().empty());
  // 2 workloads x (baseline + 6 cells), each priced once.
  EXPECT_EQ(suite.metrics().counter("cells.computed").value(), 14u);
  for (const driver::PreparedWorkload& p : suite.prepared()) {
    for (const driver::SweepExecutor::Cell& c : grid) {
      EXPECT_EQ(driver::statsDigest(suite.run(p, kXScale, c.spec)),
                driver::statsDigest(suite.runner().run(p, kXScale, c.spec)))
          << driver::SweepExecutor::keyOf(p.name, kXScale, c.spec);
    }
  }
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

TEST(SweepTrace, OneThreadRunsInListOrder) {
  // At one thread the trace is a function of the request lists alone:
  // no worker starts before a whole batch is queued, and it takes the
  // batch in list order.
  const std::string path = testing::TempDir() + "sweep_trace_order.jsonl";
  const auto eventsOf = [&path](const std::string& ev, const char* field) {
    std::ifstream in(path);
    std::vector<std::string> values;
    const std::string tag = "\"ev\": \"" + ev + "\"";
    const std::string name = std::string("\"") + field + "\": \"";
    for (std::string line; std::getline(in, line);) {
      if (line.find(tag) == std::string::npos) continue;
      const std::size_t at = line.find(name) + name.size();
      values.push_back(line.substr(at, line.find('"', at) - at));
    }
    return values;
  };
  const std::vector<std::string> names = {"crc", "bitcount", "sha"};
  {
    ScopedEnv env("WP_TRACE", path.c_str());
    driver::SweepExecutor suite(names, energy::EnergyParams{}, 0, 1);
  }
  EXPECT_EQ(eventsOf("prepare", "workload"), names);

  const std::vector<driver::SchemeSpec> specs = {
      driver::SchemeSpec::wayMemoization(),
      driver::SchemeSpec::wayPlacement(2 * 1024),
      driver::SchemeSpec::wayPrediction()};
  {
    ScopedEnv env("WP_TRACE", path.c_str());
    driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 1);
    std::vector<driver::SweepExecutor::Cell> grid;
    for (const driver::SchemeSpec& s : specs) grid.push_back({kXScale, s});
    suite.runAll(grid);
  }
  std::vector<std::string> keys = {driver::SweepExecutor::keyOf(
      "crc", kXScale, driver::SchemeSpec::baseline())};
  for (const driver::SchemeSpec& s : specs) {
    keys.push_back(driver::SweepExecutor::keyOf("crc", kXScale, s));
  }
  EXPECT_EQ(eventsOf("cell_start", "key"), keys)
      << "one job per machine, first requests first";
  std::remove(path.c_str());
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
