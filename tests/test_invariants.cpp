// Cross-cutting accounting invariants, checked on real workload runs
// under every scheme: if these hold, the energy model's inputs are
// trustworthy.
#include <gtest/gtest.h>

#include "driver/runner.hpp"

namespace wp {
namespace {

const cache::CacheGeometry kGeom{16 * 1024, 32, 16};

struct SchemeCase {
  const char* name;
  driver::SchemeSpec spec;
};

// gtest's default printer dumps the struct's bytes, pointers included,
// into the listed test name; print the case name so the name is stable.
void PrintTo(const SchemeCase& c, std::ostream* os) { *os << c.name; }

class CounterInvariants : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(CounterInvariants, HoldOnRealRun) {
  driver::Runner runner;
  const driver::PreparedWorkload p = runner.prepare("rijndael_e");
  const driver::RunResult r = runner.run(p, kGeom, GetParam().spec);
  const cache::CacheStats& c = r.stats.icache;
  const cache::FetchStats& f = r.stats.fetch;
  const u32 ways = kGeom.ways;

  // Every access is exactly one lookup kind; every access hits or misses.
  EXPECT_EQ(c.accesses,
            c.full_lookups + c.single_way_lookups + c.partial_lookups +
                c.no_tag_lookups);
  EXPECT_EQ(c.accesses, c.hits + c.misses);

  // Tag activity decomposes exactly over lookup kinds (squashed probes
  // from way-hint mispredicts add one compare each).
  EXPECT_EQ(c.tag_compares,
            c.full_lookups * ways + c.partial_lookups * (ways - 1) +
                c.single_way_lookups + r.stats.squashed_probes);
  EXPECT_EQ(c.tag_compares, c.matchline_precharges);

  // One delivered word per fetch.
  EXPECT_EQ(c.data_word_reads, f.fetches);

  // Fetch counts: one instruction fetched per retired instruction.
  EXPECT_EQ(f.fetches, r.stats.instructions);

  // The I-TLB is consulted on every fetch.
  EXPECT_EQ(r.stats.itlb.accesses, f.fetches);

  // Every fill is caused by a missing fetch. Way prediction can count
  // two lookup misses (probe + remaining ways) for one absent line, so
  // fills <= misses; the other schemes miss exactly once per fill.
  if (GetParam().spec.scheme == cache::Scheme::kWayPrediction) {
    EXPECT_LE(c.line_fills, c.misses);
  } else {
    EXPECT_EQ(c.line_fills, c.misses);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CounterInvariants,
    ::testing::Values(
        SchemeCase{"baseline", driver::SchemeSpec::baseline()},
        SchemeCase{"wayplacement", driver::SchemeSpec::wayPlacement(4096)},
        SchemeCase{"waymemo", driver::SchemeSpec::wayMemoization()},
        SchemeCase{"waypred", driver::SchemeSpec::wayPrediction()}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(EnergyInvariants, SchemesNeverChangeArchitecturalWork) {
  driver::Runner runner;
  const driver::PreparedWorkload p = runner.prepare("tiffdither");
  const auto base = runner.run(p, kGeom, driver::SchemeSpec::baseline());
  const auto wm = runner.run(p, kGeom, driver::SchemeSpec::wayMemoization());
  const auto pred = runner.run(p, kGeom, driver::SchemeSpec::wayPrediction());
  // Same binary, same input: identical instruction counts and D-cache
  // behaviour; only the fetch path differs.
  EXPECT_EQ(base.stats.instructions, wm.stats.instructions);
  EXPECT_EQ(base.stats.instructions, pred.stats.instructions);
  EXPECT_EQ(base.stats.dcache.accesses, wm.stats.dcache.accesses);
  EXPECT_EQ(base.stats.dcache.hits, pred.stats.dcache.hits);
  EXPECT_EQ(base.stats.branches.branches, wm.stats.branches.branches);
}

TEST(EnergyInvariants, TagEnergyOrderingAcrossSchemes) {
  driver::Runner runner;
  const driver::PreparedWorkload p = runner.prepare("fft");
  const auto base = runner.run(p, kGeom, driver::SchemeSpec::baseline());
  const auto wp = runner.run(p, kGeom, driver::SchemeSpec::wayPlacement(4096));
  const auto wm = runner.run(p, kGeom, driver::SchemeSpec::wayMemoization());
  // Both optimized schemes eliminate most tag comparisons.
  EXPECT_LT(wp.stats.icache.tag_compares, base.stats.icache.tag_compares / 5);
  EXPECT_LT(wm.stats.icache.tag_compares, base.stats.icache.tag_compares / 5);
  // And the energy model sees it in the tag component.
  EXPECT_LT(wp.energy.icache.tag, base.energy.icache.tag / 5);
}

}  // namespace
}  // namespace wp
