// Golden slices: seed-0 sweeps over crc, bitcount and sha, compared
// with the committed recordings field by field, numbers as source text.
// The Figure 6 slice (way-memoization and way-placement at 16..1 KB, at
// 32 KB/32-way and at the claim-11 corner, 16 KB/8-way) reads
// BENCH_fig6.json; the layout-ablation slice (every registered strategy
// at the 1 KB area, 32 KB/32-way) reads BENCH_ablation_layout.json.
// Host fields (timings, attempts, worker) are skipped, so any drift in
// a guest number — energy, delay, cycles, coverage, layout — fails
// tier-1. A change that moves guest numbers on purpose re-records the
// BENCH files; these tests read the files, so they follow.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "driver/checkpoint.hpp"
#include "driver/sweep.hpp"
#include "layout/strategy.hpp"

namespace wp {
namespace {

/// Field name → value as source text (strings keep their quotes).
using Fields = std::map<std::string, std::string>;

/// Fields that describe the host run rather than the simulated machine
/// (the benchmark harness's HOST_FIELDS).
const std::set<std::string> kHostFields = {
    "attempts",         "restored",      "from_store", "wall_seconds",
    "simulate_seconds", "price_seconds", "guest_mips", "worker"};

/// Every cell of a rendered sweep report, keyed by workload, geometry,
/// scheme, WP area and layout, with the host fields dropped.
std::map<std::string, Fields> cellsOf(std::istream& report) {
  std::map<std::string, Fields> cells;
  std::string line;
  bool in_cells = false;
  while (std::getline(report, line)) {
    if (!in_cells) {
      in_cells = line.find("\"cells\": [") != std::string::npos;
      continue;
    }
    if (line.rfind("  ]", 0) == 0) break;
    std::map<std::string, driver::JsonToken> tokens;
    if (!driver::parseFlatJsonLine(line, tokens)) {
      ADD_FAILURE() << "unparseable cell line: " << line;
      continue;
    }
    Fields fields;
    for (const auto& [name, tok] : tokens) {
      if (kHostFields.count(name) == 0) {
        fields[name] = tok.is_string ? '"' + tok.text + '"' : tok.text;
      }
    }
    std::string key;
    for (const char* k : {"workload", "icache_size_bytes", "ways",
                          "line_bytes", "scheme", "wp_area_bytes", "layout"}) {
      key += fields[k] + "/";
    }
    cells[key] = std::move(fields);
  }
  return cells;
}

/// Runs @p grid on @p suite, expects @p cells report cells, and
/// compares each with the same cell of the recording at @p path.
void expectGridMatchesRecording(
    driver::SweepExecutor& suite,
    const std::vector<driver::SweepExecutor::Cell>& grid, const char* path,
    std::size_t cells) {
  suite.runAll(grid);
  ASSERT_TRUE(suite.quarantined().empty());

  std::stringstream report;
  suite.writeJsonReport(report);
  const std::map<std::string, Fields> fresh = cellsOf(report);
  std::ifstream recording(path);
  ASSERT_TRUE(recording.is_open()) << "cannot read " << path;
  const std::map<std::string, Fields> golden = cellsOf(recording);

  EXPECT_EQ(fresh.size(), cells);
  for (const auto& [key, fields] : fresh) {
    SCOPED_TRACE(key);
    const auto recorded = golden.find(key);
    ASSERT_NE(recorded, golden.end()) << "cell is not in the recording";
    EXPECT_EQ(fields, recorded->second);
  }
}

TEST(GoldenFig6, SliceMatchesTheRecording) {
  // Pinned supervision and an explicit layout, so WP_RETRIES,
  // WP_CELL_FAULT or WP_LAYOUT in the shell cannot change the run.
  const driver::SupervisorConfig pinned;
  driver::SweepExecutor suite({"crc", "bitcount", "sha"},
                              energy::EnergyParams{}, 0, 4, &pinned);
  const cache::CacheGeometry geometries[] = {{32 * 1024, 32, 32},
                                             {16 * 1024, 32, 8}};
  std::vector<driver::SweepExecutor::Cell> grid;
  for (const cache::CacheGeometry& g : geometries) {
    grid.push_back({g, driver::SchemeSpec::wayMemoization()});
    for (const u32 area_kb : {16u, 8u, 4u, 2u, 1u}) {
      driver::SchemeSpec wp;
      wp.scheme = cache::Scheme::kWayPlacement;
      wp.wp_area_bytes = area_kb * 1024;
      wp.layout = "way_placement";
      grid.push_back({g, wp});
    }
  }
  expectGridMatchesRecording(suite, grid, WP_GOLDEN_FIG6, 36);
}

TEST(GoldenAblationLayout, SliceMatchesTheRecording) {
  // Pinned supervision and each cell's layout, as in the fig6 slice.
  const driver::SupervisorConfig pinned;
  driver::SweepExecutor suite({"crc", "bitcount", "sha"},
                              energy::EnergyParams{}, 0, 4, &pinned);
  std::vector<driver::SweepExecutor::Cell> grid;
  for (const layout::LayoutStrategy* s : layout::strategies()) {
    driver::SchemeSpec wp = driver::SchemeSpec::wayPlacement(1024);
    wp.layout = s->name;
    grid.push_back({{32 * 1024, 32, 32}, wp});
  }
  expectGridMatchesRecording(suite, grid, WP_GOLDEN_ABLATION_LAYOUT, 18);
}

}  // namespace
}  // namespace wp
