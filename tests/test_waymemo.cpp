// Way-memoization tests: link recording and following, both
// invalidation models, the paper's 21 % data-overhead figure.
#include <gtest/gtest.h>

#include "cache/way_memo.hpp"

namespace wp::cache {
namespace {

class WayMemoTest : public ::testing::Test {
 protected:
  WayMemoTest() : cache_(CacheGeometry{1024, 32, 4}), memo_(cache_) {}
  CamCache cache_;
  WayMemoizer memo_;
};

TEST_F(WayMemoTest, FollowAfterRecord) {
  cache_.fill(0x000, false);
  const u32 target_way = cache_.fill(0x020, false);
  EXPECT_FALSE(memo_.followLink(0x000, WayMemoizer::CrossKind::kSequential)
                   .has_value());
  memo_.recordLink(0x000, WayMemoizer::CrossKind::kSequential, 0x020,
                   target_way);
  const auto way =
      memo_.followLink(0x000, WayMemoizer::CrossKind::kSequential);
  ASSERT_TRUE(way.has_value());
  EXPECT_EQ(*way, target_way);
}

TEST_F(WayMemoTest, BranchLinksArePerSlot) {
  cache_.fill(0x000, false);
  const u32 w = cache_.fill(0x200, false);
  // Record a branch link for the instruction in slot 3 (byte 12).
  memo_.recordLink(0x00c, WayMemoizer::CrossKind::kBranchTaken, 0x200, w);
  EXPECT_TRUE(memo_.followLink(0x00c, WayMemoizer::CrossKind::kBranchTaken)
                  .has_value());
  // A different slot of the same line has no link.
  EXPECT_FALSE(memo_.followLink(0x008, WayMemoizer::CrossKind::kBranchTaken)
                   .has_value());
  // Nor does the sequential link.
  EXPECT_FALSE(memo_.followLink(0x000, WayMemoizer::CrossKind::kSequential)
                   .has_value());
}

TEST_F(WayMemoTest, TargetEvictionInvalidatesLink) {
  const CacheGeometry g = cache_.geometry();
  const u32 set_stride = g.line_bytes * g.sets();
  cache_.fill(0x000, false);
  const u32 target = 1 * set_stride + 0x20;  // set 1
  const u32 w = cache_.fill(target, false);
  memo_.recordLink(0x000, WayMemoizer::CrossKind::kSequential, target, w);

  // Evict the target by filling its set with new lines.
  for (u32 i = 2; i <= 5; ++i) cache_.fill(i * set_stride + 0x20, false);
  EXPECT_FALSE(cache_.probe(target).has_value());
  EXPECT_FALSE(memo_.followLink(0x000, WayMemoizer::CrossKind::kSequential)
                   .has_value());
}

TEST_F(WayMemoTest, SourceRefillClearsItsLinks) {
  const CacheGeometry g = cache_.geometry();
  const u32 set_stride = g.line_bytes * g.sets();
  cache_.fill(0x000, false);  // source, set 0 way 0
  const u32 w = cache_.fill(0x020, false);
  memo_.recordLink(0x000, WayMemoizer::CrossKind::kSequential, 0x020, w);

  // Evict the source and refill the same way with a different line.
  for (u32 i = 1; i <= 4; ++i) cache_.fill(i * set_stride, false);
  const u32 new_line = 1 * set_stride;  // resides somewhere in set 0
  ASSERT_TRUE(cache_.probe(new_line).has_value());
  EXPECT_FALSE(memo_.followLink(new_line, WayMemoizer::CrossKind::kSequential)
                   .has_value());
}

TEST_F(WayMemoTest, FlashClearKillsAllLinks) {
  cache_.fill(0x000, false);
  const u32 w = cache_.fill(0x020, false);
  memo_.recordLink(0x000, WayMemoizer::CrossKind::kSequential, 0x020, w);
  memo_.flashClearLinks();
  EXPECT_FALSE(memo_.followLink(0x000, WayMemoizer::CrossKind::kSequential)
                   .has_value());
  EXPECT_EQ(memo_.flashClears(), 1u);
  EXPECT_GE(cache_.stats().link_invalidations, 1u);
}

TEST_F(WayMemoTest, LinkReadsAndWritesAreCounted) {
  cache_.fill(0x000, false);
  const u32 w = cache_.fill(0x020, false);
  memo_.followLink(0x000, WayMemoizer::CrossKind::kSequential);
  memo_.recordLink(0x000, WayMemoizer::CrossKind::kSequential, 0x020, w);
  memo_.followLink(0x000, WayMemoizer::CrossKind::kSequential);
  EXPECT_EQ(cache_.stats().link_reads, 2u);
  EXPECT_EQ(cache_.stats().link_writes, 1u);
  EXPECT_EQ(cache_.stats().linked_accesses, 1u);
}

TEST_F(WayMemoTest, InvalidationsCountEachValidLinkOnce) {
  const CacheGeometry g = cache_.geometry();
  const u32 set_stride = g.line_bytes * g.sets();
  cache_.fill(0x000, false);  // source A, set 0
  cache_.fill(0x020, false);  // source B, set 1
  const u32 w = cache_.fill(0x040, false);
  memo_.recordLink(0x000, WayMemoizer::CrossKind::kSequential, 0x040, w);
  memo_.recordLink(0x004, WayMemoizer::CrossKind::kBranchTaken, 0x040, w);
  memo_.recordLink(0x020, WayMemoizer::CrossKind::kSequential, 0x040, w);
  // Rewriting a valid link leaves one valid link.
  memo_.recordLink(0x020, WayMemoizer::CrossKind::kSequential, 0x040, w);
  EXPECT_EQ(cache_.stats().link_writes, 4u);
  // Refilling A's way clears A's two links.
  for (u32 i = 1; i <= 4; ++i) cache_.fill(i * set_stride, false);
  EXPECT_EQ(cache_.stats().link_invalidations, 2u);
  // A flash clear finds only B's link still valid, the next one none.
  memo_.flashClearLinks();
  EXPECT_EQ(cache_.stats().link_invalidations, 3u);
  memo_.flashClearLinks();
  EXPECT_EQ(cache_.stats().link_invalidations, 3u);
  EXPECT_EQ(memo_.flashClears(), 2u);
}

TEST_F(WayMemoTest, LinksStayExactAcrossManyFlashClears) {
  cache_.fill(0x000, false);
  const u32 w = cache_.fill(0x020, false);
  memo_.recordLink(0x000, WayMemoizer::CrossKind::kSequential, 0x020, w);
  // As many flash clears as a link's 16-bit validity stamp can count
  // apart: the stamps wrap back to the one the link was written in.
  for (u32 i = 0; i < 0xffff; ++i) memo_.flashClearLinks();
  EXPECT_FALSE(memo_.followLink(0x000, WayMemoizer::CrossKind::kSequential)
                   .has_value());
  EXPECT_EQ(cache_.stats().link_invalidations, 1u);
  memo_.recordLink(0x000, WayMemoizer::CrossKind::kSequential, 0x020, w);
  EXPECT_TRUE(memo_.followLink(0x000, WayMemoizer::CrossKind::kSequential)
                  .has_value());
  EXPECT_FALSE(memo_.followLink(0x004, WayMemoizer::CrossKind::kBranchTaken)
                   .has_value());
}

TEST(WayMemoOverhead, PaperNumbersFor32Way) {
  // 32 B lines, 32 ways: 9 links x 6 bits = 54 bits on 256 -> 21 %.
  CamCache cache(CacheGeometry{32 * 1024, 32, 32});
  WayMemoizer memo(cache);
  EXPECT_EQ(memo.linkBitsPerLine(), 54u);
  EXPECT_NEAR(memo.dataAreaFactor(), 1.21, 0.005);
}

TEST(WayMemoOverhead, ScalesWithAssociativity) {
  CamCache c8(CacheGeometry{16 * 1024, 32, 8});
  WayMemoizer m8(c8);
  EXPECT_EQ(m8.linkBitsPerLine(), 9u * 4u);  // 3 way bits + valid
  CamCache c16(CacheGeometry{16 * 1024, 32, 16});
  WayMemoizer m16(c16);
  EXPECT_EQ(m16.linkBitsPerLine(), 9u * 5u);
  EXPECT_LT(m8.dataAreaFactor(), m16.dataAreaFactor());
}

}  // namespace
}  // namespace wp::cache
