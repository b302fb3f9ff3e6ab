// I-TLB tests: hit/miss behaviour, FIFO replacement, the way-placement
// bit, and the OS area-limit policy.
#include <gtest/gtest.h>

#include "cache/tlb.hpp"

namespace wp::cache {
namespace {

TEST(Tlb, MissThenHit) {
  Tlb tlb(4);
  EXPECT_FALSE(tlb.access(0x1000).hit);
  EXPECT_TRUE(tlb.access(0x1000).hit);
  EXPECT_TRUE(tlb.access(0x1004).hit);  // same page
  EXPECT_EQ(tlb.stats().accesses, 3u);
  EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(Tlb, FifoReplacement) {
  Tlb tlb(2);
  tlb.access(0 * mem::kPageBytes);
  tlb.access(1 * mem::kPageBytes);
  tlb.access(2 * mem::kPageBytes);  // evicts page 0
  EXPECT_FALSE(tlb.access(0 * mem::kPageBytes).hit);
}

TEST(Tlb, WayPlacementBitFollowsLimit) {
  Tlb tlb(8);
  tlb.setWayPlacementLimit(2 * mem::kPageBytes);
  EXPECT_TRUE(tlb.access(0).way_placement_page);
  EXPECT_TRUE(tlb.access(mem::kPageBytes).way_placement_page);
  EXPECT_FALSE(tlb.access(2 * mem::kPageBytes).way_placement_page);
  EXPECT_FALSE(tlb.access(100 * mem::kPageBytes).way_placement_page);
}

TEST(Tlb, BitIsStoredInEntryNotRecomputed) {
  Tlb tlb(8);
  tlb.setWayPlacementLimit(mem::kPageBytes);
  EXPECT_TRUE(tlb.access(0).way_placement_page);   // installs entry
  EXPECT_TRUE(tlb.access(4).way_placement_page);   // hit, bit from entry
}

TEST(Tlb, ChangingLimitFlushes) {
  Tlb tlb(8);
  tlb.setWayPlacementLimit(mem::kPageBytes);
  tlb.access(0);
  tlb.setWayPlacementLimit(0);
  const Tlb::Result r = tlb.access(0);
  EXPECT_FALSE(r.hit);  // flushed
  EXPECT_FALSE(r.way_placement_page);
}

TEST(Tlb, LimitMustBePageAligned) {
  Tlb tlb(8);
  EXPECT_THROW(tlb.setWayPlacementLimit(100), SimError);
  EXPECT_NO_THROW(tlb.setWayPlacementLimit(4 * mem::kPageBytes));
}

TEST(Tlb, InWayPlacementAreaIsOsView) {
  Tlb tlb(8);
  tlb.setWayPlacementLimit(3 * mem::kPageBytes);
  EXPECT_TRUE(tlb.inWayPlacementArea(0));
  EXPECT_TRUE(tlb.inWayPlacementArea(3 * mem::kPageBytes - 1));
  EXPECT_FALSE(tlb.inWayPlacementArea(3 * mem::kPageBytes));
}

TEST(Tlb, EvictionAndRefillRestoreWpBit) {
  Tlb tlb(2);
  tlb.setWayPlacementLimit(mem::kPageBytes);  // page 0 is way-placement
  const Tlb::Result first = tlb.access(0x0);
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(first.way_placement_page);

  // Two other pages roll the FIFO over page 0's entry.
  tlb.access(mem::kPageBytes);
  tlb.access(2 * mem::kPageBytes);

  // The re-walk reinstalls the translation with the WP bit intact: the
  // bit lives in the page tables, the TLB only caches it.
  const Tlb::Result again = tlb.access(0x0);
  EXPECT_FALSE(again.hit);
  EXPECT_TRUE(again.way_placement_page);
}

TEST(Tlb, FaultFlippedWpBitHealsOnRefill) {
  Tlb tlb(2);
  tlb.setWayPlacementLimit(mem::kPageBytes);
  tlb.access(0x0);  // installs into slot 0 (FIFO from 0)
  ASSERT_TRUE(tlb.faultFlipWpBit(0));
  EXPECT_FALSE(tlb.access(0x40).way_placement_page)
      << "the corrupted cached bit must be visible until refill";

  tlb.access(mem::kPageBytes);
  tlb.access(2 * mem::kPageBytes);       // evict the corrupted entry
  EXPECT_TRUE(tlb.access(0x0).way_placement_page) << "re-walk heals it";
}

TEST(Tlb, FaultHooksOnEmptySlotsReportNothing) {
  Tlb tlb(4);
  EXPECT_FALSE(tlb.faultFlipWpBit(2)) << "no valid translation there";
  EXPECT_EQ(tlb.faultClearWpBits(), 0u);
  EXPECT_EQ(tlb.entryCount(), 4u);
}

// ---------------------------------------------------------------------
// The stale-MRU fix: every flush path must drop the MRU shortcut, so a
// batched accessRepeat can never silently ride a dead translation.

TEST(Tlb, BatchAfterLimitChangeCannotRideADeadTranslation) {
  Tlb tlb(4);
  tlb.access(0x1000);
  EXPECT_TRUE(tlb.accessRepeat(0x1000, 3).hit);
  // setWayPlacementLimit flushes every entry; before the fix the MRU
  // index survived and still pointed at the (now invalid) slot.
  tlb.setWayPlacementLimit(mem::kPageBytes);
  EXPECT_THROW(tlb.accessRepeat(0x1000, 3), SimError);
  // A fresh access re-walks and re-arms the shortcut.
  EXPECT_FALSE(tlb.access(0x1000).hit);
  EXPECT_TRUE(tlb.accessRepeat(0x1000, 2).hit);
}

TEST(Tlb, BatchAfterFlushingSwitchCannotRideADeadTranslation) {
  Tlb tlb(4);
  tlb.access(0x1000);
  tlb.switchContext(1, 0, TlbSwitchPolicy::kFlush);
  EXPECT_THROW(tlb.accessRepeat(0x1000, 4), SimError);
}

TEST(Tlb, BatchAfterTaggedSwitchCannotRideTheOutgoingMru) {
  Tlb tlb(4);
  tlb.access(0x1000);
  // ASID tagging keeps the entry resident, but it belongs to process 0:
  // the incoming process's batch must not ride it either.
  tlb.switchContext(1, 0, TlbSwitchPolicy::kAsidTagged);
  EXPECT_THROW(tlb.accessRepeat(0x1000, 4), SimError);
}

TEST(Tlb, AccessRepeatRequiresTheMruPage) {
  Tlb tlb(4);
  tlb.access(0x1000);
  tlb.access(0x2000);  // MRU now holds page 2
  EXPECT_THROW(tlb.accessRepeat(0x1000, 1), SimError);
  EXPECT_TRUE(tlb.accessRepeat(0x2000, 5).hit);
}

TEST(Tlb, AccessRepeatCountsEveryAccessOfTheBatch) {
  Tlb tlb(4);
  tlb.access(0x1000);
  tlb.accessRepeat(0x1000, 7);
  EXPECT_EQ(tlb.stats().accesses, 8u);
  EXPECT_EQ(tlb.stats().misses, 1u);
}

// ---------------------------------------------------------------------
// Context switches: ASID tagging vs flush.

TEST(Tlb, FlushingSwitchRewalksEveryPage) {
  Tlb tlb(4);
  tlb.access(0x1000);
  tlb.switchContext(1, 0, TlbSwitchPolicy::kFlush);
  EXPECT_EQ(tlb.currentAsid(), 1u);
  EXPECT_FALSE(tlb.access(0x1000).hit) << "flushed on switch";
  tlb.switchContext(0, 0, TlbSwitchPolicy::kFlush);
  EXPECT_FALSE(tlb.access(0x1000).hit) << "flushed again on switch back";
}

TEST(Tlb, TaggedSwitchKeepsEntriesResidentPerProcess) {
  Tlb tlb(4);
  tlb.access(0x1000);
  tlb.switchContext(1, 0, TlbSwitchPolicy::kAsidTagged);
  EXPECT_FALSE(tlb.access(0x1000).hit)
      << "process 0's translation must not serve process 1";
  tlb.switchContext(0, 0, TlbSwitchPolicy::kAsidTagged);
  EXPECT_TRUE(tlb.access(0x1000).hit)
      << "process 0's translation survives the round trip";
  EXPECT_EQ(tlb.stats().walks, 2u) << "one walk per process, not three";
}

TEST(Tlb, TaggedEntriesCarryTheirOwnersWpBit) {
  Tlb tlb(4);
  // Process 0 has a 1-page WP area; process 1 has none. The same VPN
  // must yield each owner's own page-table bit — this asymmetry is why
  // per-process WP bits need ASID tagging (or a switch flush) at all.
  tlb.switchContext(0, mem::kPageBytes, TlbSwitchPolicy::kAsidTagged);
  EXPECT_TRUE(tlb.access(0).way_placement_page);
  tlb.switchContext(1, 0, TlbSwitchPolicy::kAsidTagged);
  EXPECT_FALSE(tlb.access(0).way_placement_page);
  tlb.switchContext(0, mem::kPageBytes, TlbSwitchPolicy::kAsidTagged);
  const Tlb::Result r = tlb.access(0);
  EXPECT_TRUE(r.hit);
  EXPECT_TRUE(r.way_placement_page) << "cached bit is the owner's";
}

TEST(Tlb, SwitchLimitMustBePageAligned) {
  Tlb tlb(4);
  EXPECT_THROW(tlb.switchContext(1, 100, TlbSwitchPolicy::kFlush), SimError);
}

}  // namespace
}  // namespace wp::cache
