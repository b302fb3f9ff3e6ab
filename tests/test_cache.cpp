// Cache model tests: geometry arithmetic, CAM lookups of all kinds,
// round-robin and way-placed fills, eviction notification, dirty lines,
// and the D-cache wrapper.
#include <gtest/gtest.h>

#include "cache/cam_cache.hpp"
#include "cache/data_cache.hpp"

namespace wp::cache {
namespace {

TEST(Geometry, XScaleConfig) {
  const CacheGeometry g{32 * 1024, 32, 32};
  EXPECT_EQ(g.sets(), 32u);
  EXPECT_EQ(g.offsetBits(), 5u);
  EXPECT_EQ(g.setBits(), 5u);
  EXPECT_EQ(g.wayBits(), 5u);
  EXPECT_EQ(g.tagBits(), 22u);
  EXPECT_EQ(g.wordsPerLine(), 8u);
}

TEST(Geometry, AddressSplit) {
  const CacheGeometry g{32 * 1024, 32, 32};
  const u32 addr = 0xdeadbeef & ~3u;
  EXPECT_EQ(g.lineAddrOf(addr), addr & ~31u);
  EXPECT_EQ(g.setOf(addr), (addr >> 5) & 31u);
  EXPECT_EQ(g.tagOf(addr), addr >> 10);
  EXPECT_EQ(g.slotOf(addr), (addr & 31u) / 4);
}

TEST(Geometry, WayPlacedWayUsesLowTagBits) {
  const CacheGeometry g{32 * 1024, 32, 32};
  // Paper §4.2: a 32-way cache uses the lower 5 bits of the tag.
  EXPECT_EQ(g.wayPlacedWayOf(0), 0u);
  EXPECT_EQ(g.wayPlacedWayOf(1 << 10), 1u);   // tag bit 0
  EXPECT_EQ(g.wayPlacedWayOf(31 << 10), 31u);
  EXPECT_EQ(g.wayPlacedWayOf(32 << 10), 0u);  // bit 5 of tag is not used
}

TEST(Geometry, RejectsNonPow2) {
  CacheGeometry g{3000, 32, 4};
  EXPECT_THROW(g.sets(), SimError);
}

TEST(CamCache, MissThenHit) {
  CamCache c(CacheGeometry{1024, 32, 4});
  EXPECT_FALSE(c.lookup(0x100, LookupKind::kFull).hit);
  c.fill(0x100, false);
  const LookupResult r = c.lookup(0x100, LookupKind::kFull);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(c.stats().hits, 1u);
}

TEST(CamCache, FullLookupCountsAllWays) {
  CamCache c(CacheGeometry{1024, 32, 4});
  c.lookup(0x0, LookupKind::kFull);
  EXPECT_EQ(c.stats().tag_compares, 4u);
  EXPECT_EQ(c.stats().matchline_precharges, 4u);
}

TEST(CamCache, SingleWayLookupCountsOneWay) {
  CamCache c(CacheGeometry{1024, 32, 4});
  c.lookup(0x0, LookupKind::kSingleWay);
  EXPECT_EQ(c.stats().tag_compares, 1u);
  EXPECT_EQ(c.stats().matchline_precharges, 1u);
}

TEST(CamCache, SingleWayFindsWayPlacedLine) {
  const CacheGeometry g{1024, 32, 4};
  CamCache c(g);
  // Address whose tag low bits select way 3.
  const u32 addr = 3u << (g.offsetBits() + g.setBits());
  c.fill(addr, /*way_placed=*/true);
  const LookupResult r = c.lookup(addr, LookupKind::kSingleWay);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.way, 3u);
}

TEST(CamCache, SingleWayMissesLineInOtherWay) {
  const CacheGeometry g{1024, 32, 4};
  CamCache c(g);
  // Tag selects way 3, but fill round-robin puts it in way 0.
  const u32 addr = 3u << (g.offsetBits() + g.setBits());
  c.fill(addr, /*way_placed=*/false);
  EXPECT_FALSE(c.lookup(addr, LookupKind::kSingleWay).hit);
  EXPECT_TRUE(c.lookup(addr, LookupKind::kFull).hit);
}

TEST(CamCache, NoTagLookupRequiresResidency) {
  CamCache c(CacheGeometry{1024, 32, 4});
  EXPECT_THROW(c.lookup(0x40, LookupKind::kNoTag), SimError);
  c.fill(0x40, false);
  const LookupResult r = c.lookup(0x40, LookupKind::kNoTag);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(c.stats().tag_compares, 0u);
}

TEST(CamCache, RoundRobinCyclesVictims) {
  const CacheGeometry g{512, 32, 4};  // 4 sets
  CamCache c(g);
  const u32 set_stride = g.line_bytes * g.sets();
  // Fill all 4 ways of set 0, then two more: evictions in fill order.
  for (u32 i = 0; i < 4; ++i) c.fill(i * set_stride, false);
  EXPECT_EQ(c.fill(4 * set_stride, false), 0u);
  EXPECT_EQ(c.fill(5 * set_stride, false), 1u);
  EXPECT_FALSE(c.probe(0).has_value());
  EXPECT_FALSE(c.probe(set_stride).has_value());
  EXPECT_TRUE(c.probe(2 * set_stride).has_value());
}

TEST(CamCache, WayPlacedFillEvictsTagNamedWay) {
  const CacheGeometry g{512, 32, 4};
  CamCache c(g);
  const u32 set_stride = g.line_bytes * g.sets();
  for (u32 i = 0; i < 4; ++i) c.fill(i * set_stride, false);  // ways 0..3
  // Way-placed fill of a line whose tag low bits say way 2.
  const u32 addr = 6 * set_stride;  // tag 6 -> way 2
  EXPECT_EQ(c.fill(addr, true), 2u);
  EXPECT_FALSE(c.probe(2 * set_stride).has_value());
}

TEST(CamCache, DoubleFillRejected) {
  CamCache c(CacheGeometry{1024, 32, 4});
  c.fill(0x200, false);
  EXPECT_THROW(c.fill(0x200, false), SimError);
}

struct RecordingListener final : CamCache::EvictionListener {
  std::vector<LineId> evicted;
  void onEvict(LineId line) override { evicted.push_back(line); }
};

TEST(CamCache, EvictionListenerFires) {
  const CacheGeometry g{256, 32, 2};  // 4 sets, 2 ways
  CamCache c(g);
  RecordingListener listener;
  c.setEvictionListener(&listener);
  const u32 set_stride = g.line_bytes * g.sets();
  c.fill(0, false);
  c.fill(set_stride, false);
  EXPECT_TRUE(listener.evicted.empty());  // fills of invalid lines
  c.fill(2 * set_stride, false);          // evicts way 0
  ASSERT_EQ(listener.evicted.size(), 1u);
  EXPECT_EQ(listener.evicted[0], (LineId{0, 0}));
}

TEST(CamCache, ResidentLineAddrInvertsMapping) {
  const CacheGeometry g{1024, 32, 4};
  CamCache c(g);
  const u32 addr = 0x1234 & ~31u;
  const u32 way = c.fill(addr, false);
  EXPECT_EQ(c.residentLineAddr({g.setOf(addr), way}), g.lineAddrOf(addr));
}

TEST(DataCache, StoreMarksDirtyAndWritesBack) {
  const CacheGeometry g{256, 32, 2};  // 4 sets, 2 ways
  DataCache d({g, 50});
  const u32 set_stride = g.line_bytes * g.sets();
  d.store(0);                  // miss, allocate, dirty
  d.load(set_stride);          // fill way 1
  d.load(2 * set_stride);      // evicts dirty way 0 -> writeback
  EXPECT_EQ(d.stats().writebacks, 1u);
  EXPECT_EQ(d.stats().data_word_writes, 1u);
}

TEST(DataCache, LoadTiming) {
  DataCache d({CacheGeometry{1024, 32, 4}, 50});
  const u32 miss_cycles = d.load(0x80);
  EXPECT_EQ(miss_cycles, 1u + 50u + 8u);
  EXPECT_EQ(d.load(0x80), 1u);
}

}  // namespace
}  // namespace wp::cache
