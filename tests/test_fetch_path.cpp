// Fetch-path tests: the three schemes' tag-check behaviour, the
// way-hint bit's two mispredict scenarios with their penalties, the
// intra-line skip, way-memoization's linked fetches, the fetchLine
// batching preconditions, and context-switch semantics.
#include <gtest/gtest.h>

#include <string_view>

#include "cache/fetch_path.hpp"

namespace wp::cache {
namespace {

FetchPathConfig configFor(Scheme scheme, u32 wp_area = 16 * 1024) {
  FetchPathConfig c;
  c.icache = CacheGeometry{32 * 1024, 32, 32};
  c.scheme = scheme;
  c.wp_area_bytes = scheme == Scheme::kWayPlacement ? wp_area : 0;
  return c;
}

TEST(FetchBaseline, EveryFetchIsFullSearch) {
  FetchPath fp(configFor(Scheme::kBaseline));
  fp.fetch(0x0, FetchFlow::kSequential);
  fp.fetch(0x4, FetchFlow::kSequential);
  fp.fetch(0x8, FetchFlow::kSequential);
  EXPECT_EQ(fp.cacheStats().full_lookups, 3u);
  EXPECT_EQ(fp.cacheStats().tag_compares, 3u * 32u);
  EXPECT_EQ(fp.fetchStats().sameline_skips, 0u);
}

TEST(FetchBaseline, MissPenaltyCharged) {
  FetchPath fp(configFor(Scheme::kBaseline));
  const u32 cold = fp.fetch(0x0, FetchFlow::kSequential);
  // TLB walk (20) + 1 + memory (50 + 8 words).
  EXPECT_EQ(cold, 20u + 1u + 50u + 8u);
  EXPECT_EQ(fp.fetch(0x0, FetchFlow::kSequential), 1u);
}

TEST(FetchWayPlacement, IntralineSkipAvoidsAllTagChecks) {
  FetchPath fp(configFor(Scheme::kWayPlacement));
  fp.fetch(0x0, FetchFlow::kSequential);  // miss + fill
  const u64 tags_before = fp.cacheStats().tag_compares;
  fp.fetch(0x4, FetchFlow::kSequential);
  fp.fetch(0x8, FetchFlow::kSequential);
  EXPECT_EQ(fp.cacheStats().tag_compares, tags_before);
  EXPECT_EQ(fp.fetchStats().sameline_skips, 2u);
}

TEST(FetchWayPlacement, WpAccessChecksOneTag) {
  FetchPath fp(configFor(Scheme::kWayPlacement));
  fp.fetch(0x00, FetchFlow::kSequential);   // in WP area; hint initially 0
  const u64 tags_before = fp.cacheStats().tag_compares;
  fp.fetch(0x20, FetchFlow::kSequential);   // line crossing, hint now 1
  EXPECT_EQ(fp.cacheStats().tag_compares, tags_before + 1);
  EXPECT_EQ(fp.fetchStats().wp_single_way, 1u);
}

TEST(FetchWayPlacement, HintCase1LosesSavingOnly) {
  // First access to the WP area with hint=0: full search, no penalty.
  FetchPath fp(configFor(Scheme::kWayPlacement));
  const u32 cycles = fp.fetch(0x0, FetchFlow::kSequential);
  EXPECT_EQ(fp.fetchStats().hint_miss_lost_saving, 1u);
  EXPECT_EQ(fp.fetchStats().hint_miss_second_access, 0u);
  EXPECT_EQ(cycles, 20u + 1u + 50u + 8u);  // no extra cycle
}

TEST(FetchWayPlacement, HintCase2CostsCycleAndSecondAccess) {
  FetchPath fp(configFor(Scheme::kWayPlacement, /*wp_area=*/1024));
  fp.fetch(0x0, FetchFlow::kSequential);     // WP page; hint becomes 1
  // Jump outside the WP area: hint=1 but page is normal.
  const u32 cycles = fp.fetch(0x8000, FetchFlow::kTakenDirect);
  EXPECT_EQ(fp.fetchStats().hint_miss_second_access, 1u);
  EXPECT_EQ(fp.squashedProbes(), 1u);
  // 1 extra cycle on top of TLB walk + miss.
  EXPECT_EQ(cycles, 20u + 1u + 1u + 50u + 8u);
  EXPECT_EQ(fp.fetchStats().extra_cycles, 1u);
}

TEST(FetchWayPlacement, WpLinesAlwaysFoundBySingleWayLookup) {
  // Thrash a set with way-placed lines; single-way lookups must always
  // resolve (fills are deterministic).
  FetchPathConfig cfg = configFor(Scheme::kWayPlacement, 64 * 1024);
  cfg.icache = CacheGeometry{1024, 32, 4};  // 8 sets
  FetchPath fp(cfg);
  const u32 set_stride = 32 * 8;
  for (int round = 0; round < 3; ++round) {
    for (u32 tag = 0; tag < 6; ++tag) {
      fp.fetch(tag * set_stride, FetchFlow::kTakenDirect);
    }
  }
  // No inconsistency ensures fired; hits+misses == accesses.
  const CacheStats& s = fp.cacheStats();
  EXPECT_EQ(s.hits + s.misses, s.accesses);
}

TEST(FetchWayMemoization, LinkedRefetchSkipsTags) {
  FetchPath fp(configFor(Scheme::kWayMemoization));
  // A 2-line loop: A(0x00) -> B(0x20) -> A ...
  fp.fetch(0x00, FetchFlow::kSequential);
  fp.fetch(0x20, FetchFlow::kSequential);   // records seq link A->B
  fp.fetch(0x00, FetchFlow::kTakenDirect);  // records branch link B->A
  const u64 tags_before = fp.cacheStats().tag_compares;
  fp.fetch(0x20, FetchFlow::kSequential);   // linked
  fp.fetch(0x00, FetchFlow::kTakenDirect);  // linked
  EXPECT_EQ(fp.cacheStats().tag_compares, tags_before);
  EXPECT_EQ(fp.cacheStats().linked_accesses, 2u);
}

TEST(FetchWayMemoization, IndirectJumpsNeverLink) {
  FetchPath fp(configFor(Scheme::kWayMemoization));
  fp.fetch(0x00, FetchFlow::kSequential);
  fp.fetch(0x40, FetchFlow::kTakenIndirect);
  fp.fetch(0x00, FetchFlow::kTakenIndirect);
  fp.fetch(0x40, FetchFlow::kTakenIndirect);
  EXPECT_EQ(fp.cacheStats().linked_accesses, 0u);
}

TEST(FetchWayMemoization, ConservativeFlashClearOnMiss) {
  FetchPathConfig cfg = configFor(Scheme::kWayMemoization);
  cfg.wm_precise_invalidation = false;
  FetchPath fp(cfg);
  fp.fetch(0x00, FetchFlow::kSequential);
  fp.fetch(0x20, FetchFlow::kSequential);  // link A->B recorded
  fp.fetch(0x40, FetchFlow::kSequential);  // miss -> flash clear
  EXPECT_GE(fp.linkFlashClears(), 1u);
  // The A->B link is gone: crossing again needs a full search.
  const u64 full_before = fp.cacheStats().full_lookups;
  fp.fetch(0x00, FetchFlow::kTakenDirect);
  fp.fetch(0x20, FetchFlow::kSequential);
  EXPECT_GT(fp.cacheStats().full_lookups, full_before);
}

TEST(FetchWayMemoization, PreciseModeKeepsUnrelatedLinks) {
  FetchPathConfig cfg = configFor(Scheme::kWayMemoization);
  cfg.wm_precise_invalidation = true;
  FetchPath fp(cfg);
  fp.fetch(0x00, FetchFlow::kSequential);
  fp.fetch(0x20, FetchFlow::kSequential);  // link A->B
  fp.fetch(0x40, FetchFlow::kSequential);  // miss elsewhere; link survives
  EXPECT_EQ(fp.linkFlashClears(), 0u);
  fp.fetch(0x00, FetchFlow::kTakenDirect);
  const u64 linked_before = fp.cacheStats().linked_accesses;
  fp.fetch(0x20, FetchFlow::kSequential);
  EXPECT_EQ(fp.cacheStats().linked_accesses, linked_before + 1);
}

TEST(FetchPath, IntralineSkipCanBeDisabled) {
  FetchPathConfig cfg = configFor(Scheme::kWayPlacement);
  cfg.intraline_skip = false;
  FetchPath fp(cfg);
  fp.fetch(0x0, FetchFlow::kSequential);
  fp.fetch(0x4, FetchFlow::kSequential);
  EXPECT_EQ(fp.fetchStats().sameline_skips, 0u);
}

TEST(FetchPath, WayMemoizationAreaFactor) {
  FetchPath wm(configFor(Scheme::kWayMemoization));
  EXPECT_NEAR(wm.dataAreaFactor(), 1.21, 0.005);
  FetchPath base(configFor(Scheme::kBaseline));
  EXPECT_DOUBLE_EQ(base.dataAreaFactor(), 1.0);
}

TEST(FetchWayPlacement, SquashedProbeCountedOncePerMispredict) {
  // Area of one page: 0x0 is way-placed, 0x8000 is not.
  FetchPath fp(configFor(Scheme::kWayPlacement, mem::kPageBytes));

  fp.fetch(0x0, FetchFlow::kSequential);  // hint learns "way-placement"
  EXPECT_EQ(fp.squashedProbes(), 0u);

  // hint=WP but the page is normal: mispredict case 2 — exactly one
  // squashed probe and one extra cycle, then a full re-access.
  fp.fetch(0x8000, FetchFlow::kTakenDirect);
  EXPECT_EQ(fp.squashedProbes(), 1u);
  EXPECT_EQ(fp.fetchStats().hint_miss_second_access, 1u);
  EXPECT_EQ(fp.fetchStats().extra_cycles, 1u);

  // The hint has learned "normal": later non-WP fetches on other lines
  // are plain full searches, not new squashes.
  fp.fetch(0x8040, FetchFlow::kTakenDirect);
  fp.fetch(0x8080, FetchFlow::kTakenDirect);
  EXPECT_EQ(fp.squashedProbes(), 1u);
  EXPECT_EQ(fp.fetchStats().hint_miss_second_access, fp.squashedProbes());
}

/// Every CacheStats, TlbStats and FetchStats counter of @p a equals
/// @p b's, and so do the squashed probes and link flash-clears.
void expectSameCounters(const FetchPath& a, const FetchPath& b) {
  const CacheStats& x = a.cacheStats();
  const CacheStats& y = b.cacheStats();
  EXPECT_EQ(x.accesses, y.accesses);
  EXPECT_EQ(x.hits, y.hits);
  EXPECT_EQ(x.misses, y.misses);
  EXPECT_EQ(x.tag_compares, y.tag_compares);
  EXPECT_EQ(x.matchline_precharges, y.matchline_precharges);
  EXPECT_EQ(x.full_lookups, y.full_lookups);
  EXPECT_EQ(x.single_way_lookups, y.single_way_lookups);
  EXPECT_EQ(x.partial_lookups, y.partial_lookups);
  EXPECT_EQ(x.no_tag_lookups, y.no_tag_lookups);
  EXPECT_EQ(x.data_word_reads, y.data_word_reads);
  EXPECT_EQ(x.data_word_writes, y.data_word_writes);
  EXPECT_EQ(x.line_fills, y.line_fills);
  EXPECT_EQ(x.writebacks, y.writebacks);
  EXPECT_EQ(x.link_reads, y.link_reads);
  EXPECT_EQ(x.link_writes, y.link_writes);
  EXPECT_EQ(x.link_invalidations, y.link_invalidations);
  EXPECT_EQ(x.linked_accesses, y.linked_accesses);
  EXPECT_EQ(x.duplicate_invalidations, y.duplicate_invalidations);
  EXPECT_EQ(a.tlbStats().accesses, b.tlbStats().accesses);
  EXPECT_EQ(a.tlbStats().misses, b.tlbStats().misses);
  EXPECT_EQ(a.tlbStats().walks, b.tlbStats().walks);
  const FetchStats& f = a.fetchStats();
  const FetchStats& g = b.fetchStats();
  EXPECT_EQ(f.fetches, g.fetches);
  EXPECT_EQ(f.sameline_skips, g.sameline_skips);
  EXPECT_EQ(f.wp_single_way, g.wp_single_way);
  EXPECT_EQ(f.hint_correct, g.hint_correct);
  EXPECT_EQ(f.hint_miss_lost_saving, g.hint_miss_lost_saving);
  EXPECT_EQ(f.hint_miss_second_access, g.hint_miss_second_access);
  EXPECT_EQ(f.waypred_correct, g.waypred_correct);
  EXPECT_EQ(f.waypred_mispredict, g.waypred_mispredict);
  EXPECT_EQ(f.extra_cycles, g.extra_cycles);
  EXPECT_EQ(f.link_faults_dropped, g.link_faults_dropped);
  EXPECT_EQ(a.squashedProbes(), b.squashedProbes());
  EXPECT_EQ(a.linkFlashClears(), b.linkFlashClears());
}

TEST(FetchLine, LoopingBackWithinALineMatchesOneFetchPerInstruction) {
  class NoOpHook : public FetchFaultHook {
   public:
    void onFetch(FetchPath&) override {}
  } hook;
  struct Batch {
    u32 addr;
    FetchFlow flow;
    u32 n;
  };
  // One page of WP area: the 0x0000 lines are way-placed, the 0x6000
  // ones are not. Most batches re-enter the line the previous batch
  // left: a loop back, a resumed batch, an indirect jump.
  const Batch kBatches[] = {
      {0x0000, FetchFlow::kTakenDirect, 8},
      {0x0008, FetchFlow::kTakenDirect, 6},
      {0x0008, FetchFlow::kTakenDirect, 6},
      {0x0020, FetchFlow::kSequential, 3},
      {0x002c, FetchFlow::kSequential, 2},
      {0x0020, FetchFlow::kTakenIndirect, 1},
      {0x0024, FetchFlow::kSequential, 7},
      {0x0000, FetchFlow::kTakenDirect, 4},
      {0x0004, FetchFlow::kTakenDirect, 3},
      {0x6000, FetchFlow::kTakenIndirect, 5},
      {0x6004, FetchFlow::kTakenDirect, 4},
      {0x6000, FetchFlow::kTakenDirect, 8},
      {0x0010, FetchFlow::kTakenDirect, 2},
      {0x0010, FetchFlow::kTakenDirect, 1},
      {0x0014, FetchFlow::kSequential, 3},
  };
  for (const Scheme scheme :
       {Scheme::kBaseline, Scheme::kWayPlacement, Scheme::kWayMemoization,
        Scheme::kWayPrediction}) {
    for (const bool skip : {true, false}) {
      SCOPED_TRACE(std::string(schemeName(scheme)) +
                   (skip ? " skip" : " no-skip"));
      FetchPathConfig cfg = configFor(scheme, mem::kPageBytes);
      cfg.intraline_skip = skip;
      FetchPath batched(cfg);
      FetchPath single(cfg);
      single.attachFaultHook(&hook);
      for (const Batch& b : kBatches) {
        SCOPED_TRACE("batch at " + std::to_string(b.addr));
        const u32 first = batched.fetchLine(b.addr, b.flow, b.n);
        const u32 batched_cycles = first + (b.n - 1);
        u32 single_cycles = 0;
        for (u32 i = 0; i < b.n; ++i) {
          single_cycles += single.fetchLine(
              b.addr + 4 * i, i == 0 ? b.flow : FetchFlow::kSequential, 1);
        }
        EXPECT_EQ(batched_cycles, single_cycles);
        expectSameCounters(batched, single);
      }
    }
  }
}

TEST(FetchPath, RejectsUnalignedFetch) {
  FetchPath fp(configFor(Scheme::kBaseline));
  EXPECT_THROW(fp.fetch(0x2, FetchFlow::kSequential), SimError);
}

TEST(FetchPath, SchemeNames) {
  EXPECT_STREQ(schemeName(Scheme::kBaseline), "baseline");
  EXPECT_STREQ(schemeName(Scheme::kWayPlacement), "way-placement");
  EXPECT_STREQ(schemeName(Scheme::kWayMemoization), "way-memoization");
}

// ---------------------------------------------------------------------
// fetchLine preconditions. These are model invariants of the fetch path
// itself, so each misuse is asserted after both ways the retire loop can
// have driven the path before it: "interp", per-instruction fetch()
// calls, and "block", line batches dispatched as the loop does (one
// fetchLine per line when the closed form is exact, else one-instruction
// batches). Neither history may relax the batching guards.

class FetchLineDeath : public testing::TestWithParam<const char*> {
 protected:
  /// Fetches the eight-instruction line at 0x1000 the way GetParam()
  /// names, so the guards below run on a path with that history.
  void driveOneLine(FetchPath& fp) const {
    constexpr u32 kBase = 0x1000;
    constexpr u32 kInsts = 8;
    const bool batched = std::string_view(GetParam()) == "block";
    if (batched && fp.batchedLineFetchExact()) {
      fp.fetchLine(kBase, FetchFlow::kTakenDirect, kInsts);
      return;
    }
    for (u32 i = 0; i < kInsts; ++i) {
      const u32 addr = kBase + 4 * i;
      const FetchFlow flow =
          i == 0 ? FetchFlow::kTakenDirect : FetchFlow::kSequential;
      if (batched) {
        fp.fetchLine(addr, flow, 1);
      } else {
        fp.fetch(addr, flow);
      }
    }
  }
};

INSTANTIATE_TEST_SUITE_P(BothEngines, FetchLineDeath,
                         testing::Values("interp", "block"));

TEST_P(FetchLineDeath, SpanCrossingALineBoundaryIsRejected) {
  FetchPath fp(configFor(Scheme::kWayPlacement));
  driveOneLine(fp);
  // 32 B lines: 4 instructions from 0x18 would end at 0x24, one word
  // into the next line — the closed form would misattribute that fetch.
  EXPECT_THROW(fp.fetchLine(0x18, FetchFlow::kSequential, 4), SimError);
  EXPECT_NO_THROW(fp.fetchLine(0x18, FetchFlow::kSequential, 2));
}

TEST_P(FetchLineDeath, DrowsyLinesOnRejectBatches) {
  FetchPathConfig cfg = configFor(Scheme::kBaseline);
  cfg.drowsy_window = 8;
  FetchPath fp(cfg);
  driveOneLine(fp);
  ASSERT_FALSE(fp.batchedLineFetchExact())
      << "lines can fall drowsy between two sequential fetches";
  // A 1-instruction "batch" is a plain fetch and stays legal.
  EXPECT_NO_THROW(fp.fetchLine(0x0, FetchFlow::kSequential, 1));
  EXPECT_THROW(fp.fetchLine(0x0, FetchFlow::kSequential, 2), SimError);
}

TEST_P(FetchLineDeath, AttachedFaultHookRejectsBatches) {
  class NullHook : public FetchFaultHook {
   public:
    void onFetch(FetchPath&) override {}
  } hook;
  FetchPath fp(configFor(Scheme::kWayMemoization));
  driveOneLine(fp);
  fp.attachFaultHook(&hook);
  ASSERT_FALSE(fp.batchedLineFetchExact())
      << "hooks observe state between individual fetches";
  EXPECT_NO_THROW(fp.fetchLine(0x0, FetchFlow::kSequential, 1));
  EXPECT_THROW(fp.fetchLine(0x0, FetchFlow::kSequential, 2), SimError);
  // Detaching restores the closed form.
  fp.attachFaultHook(nullptr);
  EXPECT_NO_THROW(fp.fetchLine(0x20, FetchFlow::kSequential, 2));
}

TEST_P(FetchLineDeath, EmptyBatchIsRejected) {
  FetchPath fp(configFor(Scheme::kBaseline));
  driveOneLine(fp);
  EXPECT_THROW(fp.fetchLine(0x0, FetchFlow::kSequential, 0), SimError);
}

// ---------------------------------------------------------------------
// Context switches: switchProcess's flush semantics and guards.

TEST(FetchSwitch, FirstInstallPaysNoFlushCosts) {
  FetchPath fp(configFor(Scheme::kWayMemoization));
  fp.switchProcess(0, 0, TlbSwitchPolicy::kFlush);
  EXPECT_EQ(fp.currentAsid(), 0u);
  EXPECT_EQ(fp.linkFlashClears(), 0u)
      << "no outgoing process yet: a one-process co-run must match solo";
  EXPECT_EQ(fp.cacheStats().accesses, 0u);
}

TEST(FetchSwitch, SecondSwitchFlushesCacheAndStormsLinks) {
  FetchPath fp(configFor(Scheme::kWayMemoization));
  fp.switchProcess(0, 0, TlbSwitchPolicy::kFlush);
  fp.fetch(0x00, FetchFlow::kSequential);
  fp.fetch(0x20, FetchFlow::kSequential);  // link A->B recorded
  const u64 misses_before = fp.cacheStats().misses;
  fp.switchProcess(1, 0, TlbSwitchPolicy::kFlush);
  EXPECT_GE(fp.linkFlashClears(), 1u) << "per-switch invalidation storm";
  // The VIVT I-cache was invalidated: the incoming process cold-misses
  // even on the addresses the outgoing one had resident.
  fp.fetch(0x00, FetchFlow::kSequential);
  EXPECT_EQ(fp.cacheStats().misses, misses_before + 1);
}

TEST(FetchSwitch, SwitchResetsTheWayHint) {
  FetchPath fp(configFor(Scheme::kWayPlacement, mem::kPageBytes));
  fp.switchProcess(0, mem::kPageBytes, TlbSwitchPolicy::kFlush);
  fp.fetch(0x0, FetchFlow::kSequential);  // hint learns "way-placement"
  ASSERT_EQ(fp.fetchStats().hint_miss_lost_saving, 1u);
  fp.switchProcess(1, mem::kPageBytes, TlbSwitchPolicy::kFlush);
  // The hint is back to 0: the first WP fetch is case 1 again rather
  // than riding the outgoing process's hint.
  fp.fetch(0x0, FetchFlow::kSequential);
  EXPECT_EQ(fp.fetchStats().hint_miss_lost_saving, 2u);
}

TEST(FetchSwitch, SwitchKeepsDrowsyInvariant) {
  FetchPathConfig cfg = configFor(Scheme::kBaseline);
  cfg.drowsy_window = 4;
  FetchPath fp(cfg);
  fp.switchProcess(0, 0, TlbSwitchPolicy::kFlush);
  fp.fetch(0x00, FetchFlow::kSequential);
  fp.fetch(0x40, FetchFlow::kSequential);
  ASSERT_GT(fp.awakeDrowsyLines(), 0u);
  fp.switchProcess(1, 0, TlbSwitchPolicy::kFlush);
  EXPECT_EQ(fp.awakeDrowsyLines(), 0u)
      << "a flushed cache tracks no awake line";
}

TEST(FetchSwitch, PerProcessWayPlacementAreas) {
  FetchPath fp(configFor(Scheme::kWayPlacement, mem::kPageBytes));
  // Process 0: one WP page. Its second line fetch is a single-way hit.
  fp.switchProcess(0, mem::kPageBytes, TlbSwitchPolicy::kFlush);
  fp.fetch(0x00, FetchFlow::kSequential);
  fp.fetch(0x20, FetchFlow::kSequential);
  EXPECT_EQ(fp.fetchStats().wp_single_way, 1u);
  // Process 1: no WP area at all — the same addresses are normal pages
  // under *its* page table, so no single-way fetches accrue.
  fp.switchProcess(1, 0, TlbSwitchPolicy::kFlush);
  fp.fetch(0x00, FetchFlow::kSequential);
  fp.fetch(0x20, FetchFlow::kSequential);
  fp.fetch(0x40, FetchFlow::kSequential);
  EXPECT_EQ(fp.fetchStats().wp_single_way, 1u) << "unchanged";
}

TEST(FetchSwitch, RejectsWpAreaOnNonWpScheme) {
  FetchPath fp(configFor(Scheme::kBaseline));
  EXPECT_THROW(
      fp.switchProcess(1, mem::kPageBytes, TlbSwitchPolicy::kFlush),
      SimError);
}

TEST(FetchSwitch, RejectsUnalignedWpArea) {
  FetchPath fp(configFor(Scheme::kWayPlacement));
  EXPECT_THROW(fp.switchProcess(1, 100, TlbSwitchPolicy::kFlush), SimError);
}

}  // namespace
}  // namespace wp::cache
