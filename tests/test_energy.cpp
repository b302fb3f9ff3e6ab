// Energy-model tests: component accounting, monotonicity in geometry,
// and the relative costs the paper's savings rest on.
#include <gtest/gtest.h>

#include "energy/energy_model.hpp"
#include "test_util.hpp"

namespace wp::energy {
namespace {

TEST(EnergyModel, SingleWayLookupIsMuchCheaperThanFull) {
  const EnergyModel m;
  const double full = m.lookupEnergy(kXScale, 32);
  const double one = m.lookupEnergy(kXScale, 1);
  EXPECT_LT(one, full);
  // Eliminating 31 of 32 tag checks should drop access energy by ~50 %
  // for this geometry — the paper's headline lever.
  EXPECT_LT(one / full, 0.55);
  EXPECT_GT(one / full, 0.35);
}

TEST(EnergyModel, TagEnergyGrowsWithAssociativity) {
  const EnergyModel m;
  CacheStats one_full;
  one_full.matchline_precharges = 8;
  one_full.tag_compares = 8;
  const double tag8 =
      m.cacheEnergy(CacheGeometry{16 * 1024, 32, 8}, one_full).tag;
  CacheStats s32;
  s32.matchline_precharges = 32;
  s32.tag_compares = 32;
  const double tag32 =
      m.cacheEnergy(CacheGeometry{16 * 1024, 32, 32}, s32).tag;
  EXPECT_GT(tag32, 3.0 * tag8);
}

TEST(EnergyModel, AccountingMatchesComponents) {
  const EnergyModel m;
  CacheStats s;
  s.accesses = 10;
  s.matchline_precharges = 320;
  s.tag_compares = 320;
  s.data_word_reads = 10;
  s.line_fills = 2;
  const CacheEnergy e = m.cacheEnergy(kXScale, s);
  EXPECT_GT(e.tag, 0.0);
  EXPECT_GT(e.data, 0.0);
  EXPECT_GT(e.fills, 0.0);
  EXPECT_DOUBLE_EQ(e.total(), e.tag + e.data + e.fills + e.links);
}

TEST(EnergyModel, WayMemoAreaFactorRaisesDataAndFills) {
  const EnergyModel m;
  CacheStats s;
  s.data_word_reads = 1000;
  s.line_fills = 10;
  const CacheEnergy plain = m.cacheEnergy(kXScale, s, 1.0);
  const CacheEnergy linked = m.cacheEnergy(kXScale, s, 1.21);
  EXPECT_NEAR(linked.data / plain.data, 1.21, 0.02);
  EXPECT_NEAR(linked.fills / plain.fills, 1.21, 0.02);
  EXPECT_DOUBLE_EQ(linked.tag, plain.tag);
}

TEST(EnergyModel, LinkMaintenanceCharged) {
  const EnergyModel m;
  CacheStats s;
  s.link_writes = 100;
  const CacheEnergy e = m.cacheEnergy(kXScale, s, 1.21, /*flash_clears=*/5);
  EXPECT_GT(e.links, 0.0);
}

TEST(EnergyModel, TlbAndHintAreSmallButNonzero) {
  const EnergyModel m;
  TlbStats t;
  t.accesses = 1000;
  FetchStats f;
  f.fetches = 1000;
  const double tlb = m.tlbEnergy(t, true);
  const double tlb_plain = m.tlbEnergy(t, false);
  const double hint = m.hintEnergy(f);
  EXPECT_GT(tlb, tlb_plain);  // the way-placement bit costs something
  EXPECT_GT(hint, 0.0);
  // Both overheads are far below one full cache access per fetch.
  EXPECT_LT(hint / 1000.0, m.lookupEnergy(kXScale, 32) * 0.01);
}

TEST(EnergyModel, CoreAndMemoryScaleLinearly) {
  const EnergyModel m;
  EXPECT_DOUBLE_EQ(m.coreEnergy(2000, 3000), 2.0 * m.coreEnergy(1000, 1500));
  EXPECT_DOUBLE_EQ(m.memoryEnergy(10), 10.0 * m.memoryEnergy(1));
}

TEST(EnergyModel, TagShareCalibration) {
  // For the initial configuration a full read should be roughly half
  // tag-side energy — that is what makes ~50 % savings possible.
  const EnergyModel m;
  const EnergyParams& p = m.params();
  const double tag_bits = kXScale.tagBits();
  const double tag = 32.0 * tag_bits *
                     (p.cam_matchline_per_bit + p.cam_compare_per_bit);
  const double full = m.lookupEnergy(kXScale, 32);
  EXPECT_GT(tag / full, 0.45);
  EXPECT_LT(tag / full, 0.65);
}

}  // namespace
}  // namespace wp::energy
