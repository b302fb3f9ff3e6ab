// Resilience suite: fault injection must never change architecture.
//
// The paper's safety argument (§4.1) is that every piece of
// way-placement state — the way-hint bit, the per-I-TLB-entry WP bit,
// the placement area itself — is advisory: corrupting it costs cycles
// or energy, never correctness. These tests inject each fault class and
// assert the architectural-equivalence invariant: the retired
// instruction stream (retired_pc_hash), the data flow (dataflow_hash)
// and the workload output of a faulted run are bit-identical to the
// fault-free run, and match the host reference.
#include <gtest/gtest.h>

#include "driver/runner.hpp"
#include "fault/fault.hpp"
#include "test_util.hpp"

namespace wp {
namespace {

/// Runs @p workload under @p scheme clean and with @p faults injected;
/// asserts the faulted run is architecturally identical and correct.
void expectEquivalent(const std::string& workload,
                      const driver::SchemeSpec& scheme,
                      const fault::FaultSpec& faults) {
  driver::Runner runner;
  const driver::PreparedWorkload p = runner.prepare(workload);

  const driver::RunResult clean = runner.run(p, kXScale, scheme);
  driver::SchemeSpec faulty = scheme;
  faulty.fault = faults;
  const driver::RunResult faulted = runner.run(p, kXScale, faulty);

  ASSERT_GT(faulted.injected.events, 0u) << "injector never fired";
  EXPECT_EQ(clean.injected.events, 0u);

  EXPECT_EQ(faulted.stats.instructions, clean.stats.instructions);
  EXPECT_EQ(faulted.stats.retired_pc_hash, clean.stats.retired_pc_hash);
  EXPECT_EQ(faulted.stats.dataflow_hash, clean.stats.dataflow_hash);
  EXPECT_EQ(faulted.output, clean.output);
  EXPECT_EQ(faulted.output,
            p.workload->expected(workloads::InputSize::kLarge));
}

fault::FaultSpec one(bool fault::FaultSpec::* flag, u64 period = 97) {
  fault::FaultSpec s;
  s.period = period;
  s.*flag = true;
  return s;
}

/// Runs @p f, which must throw SimError; returns the message.
template <typename F>
std::string simErrorOf(F&& f) {
  try {
    f();
  } catch (const SimError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a SimError";
  return {};
}

// ---------------------------------------------------------------------
// The architectural-equivalence invariant, per fault class.

TEST(Equivalence, WayHintFlip) {
  expectEquivalent("crc", driver::SchemeSpec::wayPlacement(16 * 1024),
                   one(&fault::FaultSpec::flip_way_hint));
}

TEST(Equivalence, TlbWpBitFlip) {
  expectEquivalent("crc", driver::SchemeSpec::wayPlacement(16 * 1024),
                   one(&fault::FaultSpec::flip_tlb_wp_bit));
}

TEST(Equivalence, TlbWpBitBurstClear) {
  expectEquivalent("sha", driver::SchemeSpec::wayPlacement(16 * 1024),
                   one(&fault::FaultSpec::clear_tlb_wp_bits));
}

TEST(Equivalence, MemoLinkScramble) {
  expectEquivalent("crc", driver::SchemeSpec::wayMemoization(),
                   one(&fault::FaultSpec::scramble_memo_links));
}

TEST(Equivalence, MruScramble) {
  expectEquivalent("crc", driver::SchemeSpec::wayPrediction(),
                   one(&fault::FaultSpec::scramble_mru));
}

TEST(Equivalence, ResizeStorm) {
  expectEquivalent("crc", driver::SchemeSpec::wayPlacement(16 * 1024),
                   one(&fault::FaultSpec::resize_storm, 499));
}

TEST(Equivalence, ResizeStormWithDrowsyLines) {
  // E3 x E4: a storm of WP-area resizes while the drowsy controller is
  // live. Every resize flushes the I-cache, so the controller must drop
  // all awake-line tracking (the stale-state bug this suite guards
  // against) — and the composition must stay architecturally invisible.
  driver::SchemeSpec scheme = driver::SchemeSpec::wayPlacement(16 * 1024);
  scheme.drowsy_window = 2048;
  expectEquivalent("crc", scheme,
                   one(&fault::FaultSpec::resize_storm, 499));
}

TEST(Equivalence, AllClassesWithDrowsyLines) {
  driver::SchemeSpec scheme = driver::SchemeSpec::wayPlacement(16 * 1024);
  scheme.drowsy_window = 2048;
  expectEquivalent("sha", scheme, fault::FaultSpec::allClasses(101));
}

TEST(Equivalence, AllClassesCombined) {
  expectEquivalent("sha", driver::SchemeSpec::wayPlacement(16 * 1024),
                   fault::FaultSpec::allClasses(101));
}

TEST(Equivalence, AllClassesOnWayMemoization) {
  expectEquivalent("bitcount", driver::SchemeSpec::wayMemoization(),
                   fault::FaultSpec::allClasses(101));
}

// ---------------------------------------------------------------------
// The same invariant, read as a batching check. Attaching the
// injector's fetch hook puts the faulted run on one-instruction batches
// (batched line fetches are closed-form only without a hook), while the
// clean run batches whole blocks — so each of these doubles as a
// batching-equivalence check: a faulted per-instruction run must match
// a clean batched run bit for bit.

TEST(EquivalenceUnderBlockEngine, WayHintFlip) {
  expectEquivalent("crc", driver::SchemeSpec::wayPlacement(16 * 1024),
                   one(&fault::FaultSpec::flip_way_hint));
}

TEST(EquivalenceUnderBlockEngine, MemoLinkScramble) {
  expectEquivalent("crc", driver::SchemeSpec::wayMemoization(),
                   one(&fault::FaultSpec::scramble_memo_links));
}

TEST(EquivalenceUnderBlockEngine, ResizeStorm) {
  expectEquivalent("crc", driver::SchemeSpec::wayPlacement(16 * 1024),
                   one(&fault::FaultSpec::resize_storm, 499));
}

TEST(EquivalenceUnderBlockEngine, AllClassesCombined) {
  expectEquivalent("sha", driver::SchemeSpec::wayPlacement(16 * 1024),
                   fault::FaultSpec::allClasses(101));
}

// ---------------------------------------------------------------------
// Fault-injection accounting.

TEST(Injection, StatsBreakDownByClass) {
  driver::Runner runner;
  const driver::PreparedWorkload p = runner.prepare("crc");
  driver::SchemeSpec spec = driver::SchemeSpec::wayPlacement(16 * 1024);
  spec.fault = fault::FaultSpec::allClasses(101);
  const driver::RunResult r = runner.run(p, kXScale, spec);

  // Way-placement has four applicable classes; with ~hundreds of events
  // the uniform choice must exercise each at least once.
  EXPECT_GT(r.injected.events, 100u);
  EXPECT_GT(r.injected.hint_flips, 0u);
  EXPECT_GT(r.injected.tlb_bit_flips, 0u);
  EXPECT_GT(r.injected.tlb_bits_cleared, 0u);
  EXPECT_GT(r.injected.resizes, 0u);
  // ...and the inapplicable ones never fire.
  EXPECT_EQ(r.injected.links_scrambled, 0u);
  EXPECT_EQ(r.injected.mru_scrambles, 0u);
}

TEST(Injection, DisabledSpecInjectsNothing) {
  fault::FaultSpec off;
  EXPECT_FALSE(off.runtimeEnabled());
  off.flip_way_hint = true;  // flags without a period stay inert
  EXPECT_FALSE(off.runtimeEnabled());
  off.period = 10;
  EXPECT_TRUE(off.runtimeEnabled());
}

// ---------------------------------------------------------------------
// Targeted micro-scenarios for the defensive paths the injector relies
// on: duplicate-fill invalidation and link parity.

// A flipped TLB WP bit can land a way-placement line in a foreign way;
// when the healed bit later way-places the same line, the stale copy
// must be invalidated or the CAM would hold two matching tags.
TEST(Defenses, WayPlacedFillInvalidatesStaleDuplicate) {
  cache::FetchPathConfig cfg;
  cfg.icache = cache::CacheGeometry{1024, 32, 4};  // 8 sets
  cfg.tlb_entries = 4;
  cfg.scheme = cache::Scheme::kWayPlacement;
  cfg.wp_area_bytes = mem::kPageBytes;  // the whole (one-page) program
  cfg.intraline_skip = false;
  cache::FetchPath fp(cfg);
  const cache::FetchPath::FaultSurface s = fp.faultSurface();

  // 0x300 shares set 0 with 0x000 but way-places to way 3.
  fp.fetch(0x000, cache::FetchFlow::kSequential);  // hint learns WP
  ASSERT_TRUE(s.itlb.faultFlipWpBit(0));           // page looks normal now
  fp.fetch(0x300, cache::FetchFlow::kSequential);  // round-robin fill, way 0
  ASSERT_TRUE(s.itlb.faultFlipWpBit(0));           // bit heals
  fp.fetch(0x300, cache::FetchFlow::kSequential);  // full search: hit way 0
  fp.fetch(0x300, cache::FetchFlow::kSequential);  // single-way miss -> refill

  EXPECT_EQ(fp.cacheStats().duplicate_invalidations, 1u);
  const auto way = fp.icache().probe(0x300);
  ASSERT_TRUE(way.has_value());
  EXPECT_EQ(*way, 3u) << "line must end up in its way-placed way";
}

// With a fault hook attached, way-memoization links are parity-checked:
// a rotted link is dropped (full search) instead of fetching the wrong
// way — links, unlike way-placement state, are correctness-critical.
TEST(Defenses, ScrambledMemoLinkIsDroppedNotFollowed) {
  class NopHook final : public cache::FetchFaultHook {
   public:
    void onFetch(cache::FetchPath&) override {}
  };
  NopHook hook;

  cache::FetchPathConfig cfg;
  cfg.icache = cache::CacheGeometry{1024, 32, 4};
  cfg.scheme = cache::Scheme::kWayMemoization;
  cache::FetchPath fp(cfg);
  fp.attachFaultHook(&hook);
  ASSERT_TRUE(fp.faultInjectionArmed());

  Rng rng(7);
  cache::WayMemoizer* memo = fp.faultSurface().memo;
  ASSERT_NE(memo, nullptr);

  // Record the 0x000 -> 0x020 sequential link, rot links, re-follow.
  // Deterministic under the fixed seed; the bound is generous.
  for (int i = 0; i < 100 && fp.fetchStats().link_faults_dropped == 0; ++i) {
    fp.fetch(0x000, cache::FetchFlow::kSequential);
    fp.fetch(0x020, cache::FetchFlow::kSequential);
    memo->faultScrambleLinks(rng, 64);
    fp.fetch(0x000, cache::FetchFlow::kTakenDirect);
    fp.fetch(0x020, cache::FetchFlow::kSequential);
  }
  EXPECT_GE(fp.fetchStats().link_faults_dropped, 1u);
}

// A WP-area resize flushes the whole I-cache, so the drowsy controller
// must restart from zero awake lines — stale awake tracking would make
// the leakage integral lie about lines that no longer exist. The
// accumulated leakage statistics, by contrast, must survive: the run's
// energy history did happen.
TEST(Defenses, ResizeRestartsDrowsyTrackingFromZeroAwakeLines) {
  cache::FetchPathConfig cfg;
  cfg.icache = cache::CacheGeometry{1024, 32, 4};
  cfg.scheme = cache::Scheme::kWayPlacement;
  cfg.wp_area_bytes = mem::kPageBytes;
  cfg.drowsy_window = 256;  // larger than the fetch count below, so the
                            // global drowse sweep never fires mid-test
  cache::FetchPath fp(cfg);

  for (u32 addr = 0; addr < 0x200; addr += 0x20) {
    fp.fetch(addr, cache::FetchFlow::kSequential);
  }
  ASSERT_GT(fp.awakeDrowsyLines(), 0u);
  const u64 ticks_before = fp.drowsyStats().awake_line_ticks +
                           fp.drowsyStats().drowsy_line_ticks;
  ASSERT_GT(ticks_before, 0u);

  fp.resizeWayPlacementArea(2 * mem::kPageBytes);
  EXPECT_EQ(fp.awakeDrowsyLines(), 0u)
      << "flushed cache must not track awake lines";
  EXPECT_EQ(fp.drowsyStats().awake_line_ticks +
                fp.drowsyStats().drowsy_line_ticks,
            ticks_before)
      << "leakage history must survive the resize";

  // Tracking restarts cleanly: the next fetch wakes exactly one line.
  fp.fetch(0x000, cache::FetchFlow::kSequential);
  EXPECT_EQ(fp.awakeDrowsyLines(), 1u);
}

// ---------------------------------------------------------------------
// Profile faults: a damaged training profile may cost energy, never
// correctness — and an unusable one falls back to the original layout.

TEST(ProfileFaults, TruncatedProfileKeepsOutputsCorrect) {
  driver::Runner runner;
  const driver::PreparedWorkload clean = runner.prepare("crc");
  const driver::PreparedWorkload hurt = runner.prepare(
      "crc", workloads::InputSize::kSmall, fault::ProfileFault::kTruncated);
  EXPECT_TRUE(hurt.profile_ok);  // half a dump still validates

  const auto spec = driver::SchemeSpec::wayPlacement(16 * 1024);
  const driver::RunResult a = runner.run(clean, kXScale, spec);
  const driver::RunResult b = runner.run(hurt, kXScale, spec);
  // Layout (and thus pc values) may differ; computation must not.
  EXPECT_EQ(a.stats.dataflow_hash, b.stats.dataflow_hash);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(b.output, hurt.workload->expected(workloads::InputSize::kLarge));
}

TEST(ProfileFaults, ScrambledProfileKeepsOutputsCorrect) {
  driver::Runner runner;
  const driver::PreparedWorkload clean = runner.prepare("sha");
  const driver::PreparedWorkload hurt = runner.prepare(
      "sha", workloads::InputSize::kSmall, fault::ProfileFault::kScrambled);
  // Scrambling keeps every id legal, so validation *cannot* catch it —
  // the layout pass just optimises for the wrong hot set.
  EXPECT_TRUE(hurt.profile_ok);

  const auto spec = driver::SchemeSpec::wayPlacement(16 * 1024);
  const driver::RunResult a = runner.run(clean, kXScale, spec);
  const driver::RunResult b = runner.run(hurt, kXScale, spec);
  EXPECT_EQ(a.stats.dataflow_hash, b.stats.dataflow_hash);
  EXPECT_EQ(a.output, b.output);
}

TEST(ProfileFaults, EmptyProfileFallsBackToOriginalLayout) {
  driver::Runner runner;
  const driver::PreparedWorkload hurt = runner.prepare(
      "crc", workloads::InputSize::kSmall, fault::ProfileFault::kEmpty);
  EXPECT_FALSE(hurt.profile_ok);
  EXPECT_NE(hurt.profile_warning.find("no block counts"), std::string::npos)
      << hurt.profile_warning;
  // The fallback reuses the original block order.
  EXPECT_EQ(hurt.imageFor("way_placement").code,
            hurt.imageFor("original").code);

  const driver::RunResult r = runner.run(
      hurt, kXScale, driver::SchemeSpec::wayPlacement(16 * 1024));
  EXPECT_EQ(r.output, hurt.workload->expected(workloads::InputSize::kLarge));
}

TEST(ProfileFaults, BogusBlockIdsFallBackToOriginalLayout) {
  driver::Runner runner;
  const driver::PreparedWorkload hurt = runner.prepare(
      "crc", workloads::InputSize::kSmall, fault::ProfileFault::kBogusIds);
  EXPECT_FALSE(hurt.profile_ok);
  EXPECT_NE(hurt.profile_warning.find("unknown block id"), std::string::npos)
      << hurt.profile_warning;
  EXPECT_EQ(hurt.imageFor("way_placement").code,
            hurt.imageFor("original").code);

  const driver::RunResult r = runner.run(
      hurt, kXScale, driver::SchemeSpec::wayPlacement(16 * 1024));
  EXPECT_EQ(r.output, hurt.workload->expected(workloads::InputSize::kLarge));
}

// Stale-profile fence (paper §5 trains on small, evaluates on large):
// a layout trained on the small input must still not *lose* energy on
// the large one, and the self-profiled oracle can only be modestly
// better — way-placement degrades gracefully under profile drift.
TEST(ProfileFaults, StaleSmallInputProfileStillSaves) {
  driver::Runner runner;
  const driver::PreparedWorkload trained = runner.prepare("crc");
  const driver::PreparedWorkload oracle =
      runner.prepare("crc", workloads::InputSize::kLarge);

  const auto spec = driver::SchemeSpec::wayPlacement(16 * 1024);
  const driver::Normalized nt = driver::normalize(
      runner.run(trained, kXScale, spec),
      runner.run(trained, kXScale, driver::SchemeSpec::baseline()));
  const driver::Normalized no = driver::normalize(
      runner.run(oracle, kXScale, spec),
      runner.run(oracle, kXScale, driver::SchemeSpec::baseline()));

  EXPECT_LE(nt.icache_energy, 1.0);
  EXPECT_LE(nt.total_energy, 1.0);
  EXPECT_LE(no.icache_energy, nt.icache_energy + 0.02)
      << "oracle layout should be at least as good as the stale one";
}

// ---------------------------------------------------------------------
// Construction-time validation: bad configs fail fast, naming the field.

TEST(Validation, GeometryRejectsNonPowerOfTwoSize) {
  const std::string msg = simErrorOf(
      [] { cache::CamCache c(cache::CacheGeometry{1000, 32, 4}); });
  EXPECT_NE(msg.find("size_bytes"), std::string::npos) << msg;
}

TEST(Validation, GeometryRejectsBadLineAndWays) {
  EXPECT_NE(simErrorOf([] {
              cache::CamCache c(cache::CacheGeometry{1024, 24, 4});
            }).find("line_bytes"),
            std::string::npos);
  EXPECT_NE(simErrorOf([] {
              cache::CamCache c(cache::CacheGeometry{1024, 32, 3});
            }).find("ways"),
            std::string::npos);
  // 2 lines cannot populate 4 ways.
  EXPECT_NE(simErrorOf([] {
              cache::CamCache c(cache::CacheGeometry{64, 32, 4});
            }).find("fewer lines"),
            std::string::npos);
}

TEST(Validation, FetchPathRejectsZeroTlbEntries) {
  cache::FetchPathConfig cfg;
  cfg.icache = cache::CacheGeometry{1024, 32, 4};
  cfg.tlb_entries = 0;
  const std::string msg = simErrorOf([&] { cache::FetchPath fp(cfg); });
  EXPECT_NE(msg.find("tlb_entries"), std::string::npos) << msg;
}

TEST(Validation, FetchPathRejectsUnalignedWpArea) {
  cache::FetchPathConfig cfg;
  cfg.icache = cache::CacheGeometry{1024, 32, 4};
  cfg.scheme = cache::Scheme::kWayPlacement;
  cfg.wp_area_bytes = 100;
  const std::string msg = simErrorOf([&] { cache::FetchPath fp(cfg); });
  EXPECT_NE(msg.find("wp_area_bytes"), std::string::npos) << msg;
}

TEST(Validation, FetchPathRejectsWpAreaOnOtherSchemes) {
  cache::FetchPathConfig cfg;
  cfg.icache = cache::CacheGeometry{1024, 32, 4};
  cfg.scheme = cache::Scheme::kBaseline;
  cfg.wp_area_bytes = mem::kPageBytes;
  const std::string msg = simErrorOf([&] { cache::FetchPath fp(cfg); });
  EXPECT_NE(msg.find("wp_area_bytes"), std::string::npos) << msg;
  EXPECT_NE(msg.find("baseline"), std::string::npos) << msg;
}

TEST(Validation, ResizeGuardNamesTheRunningScheme) {
  cache::FetchPathConfig cfg;
  cfg.icache = cache::CacheGeometry{1024, 32, 4};
  cache::FetchPath fp(cfg);
  const std::string msg =
      simErrorOf([&] { fp.resizeWayPlacementArea(mem::kPageBytes); });
  EXPECT_NE(msg.find("baseline"), std::string::npos) << msg;
}

TEST(Validation, SchemeSpecRejectsBadWpArea) {
  driver::Runner runner;
  const driver::PreparedWorkload p = runner.prepare("crc");

  driver::SchemeSpec zero = driver::SchemeSpec::wayPlacement(0);
  EXPECT_NE(simErrorOf([&] { (void)runner.run(p, kXScale, zero); })
                .find("SchemeSpec.wp_area_bytes"),
            std::string::npos);

  driver::SchemeSpec crooked = driver::SchemeSpec::wayPlacement(100);
  EXPECT_NE(simErrorOf([&] { (void)runner.run(p, kXScale, crooked); })
                .find("SchemeSpec.wp_area_bytes"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Experiment-seed plumbing (S2): one logged number replays everything.

TEST(Seed, SameSeedReproducesRunsAndInjections) {
  driver::SchemeSpec spec = driver::SchemeSpec::wayPlacement(16 * 1024);
  spec.fault = fault::FaultSpec::allClasses(101);

  driver::Runner a(energy::EnergyParams{}, 42);
  driver::Runner b(energy::EnergyParams{}, 42);
  EXPECT_EQ(a.seed(), 42u);

  const driver::RunResult ra = a.run(a.prepare("crc"), kXScale, spec);
  const driver::RunResult rb = b.run(b.prepare("crc"), kXScale, spec);
  EXPECT_EQ(ra.stats.retired_pc_hash, rb.stats.retired_pc_hash);
  EXPECT_EQ(ra.stats.dataflow_hash, rb.stats.dataflow_hash);
  EXPECT_EQ(ra.output, rb.output);
  EXPECT_EQ(ra.injected.events, rb.injected.events);
  EXPECT_EQ(ra.injected.hint_flips, rb.injected.hint_flips);
  EXPECT_EQ(ra.injected.resizes, rb.injected.resizes);
}

TEST(Seed, DifferentSeedsChangeInputsButStayCorrect) {
  driver::Runner a(energy::EnergyParams{}, 1);
  const driver::PreparedWorkload pa = a.prepare("crc");
  const driver::RunResult ra =
      a.run(pa, kXScale, driver::SchemeSpec::baseline());
  // expected() derives from the workload instance's own seed, so it can
  // be read at any point — no ambient state to re-install.
  const auto ea = pa.workload->expected(workloads::InputSize::kLarge);
  EXPECT_EQ(ra.output, ea);

  driver::Runner b(energy::EnergyParams{}, 2);
  const driver::PreparedWorkload pb = b.prepare("crc");
  const driver::RunResult rb =
      b.run(pb, kXScale, driver::SchemeSpec::baseline());
  const auto eb = pb.workload->expected(workloads::InputSize::kLarge);
  EXPECT_EQ(rb.output, eb);

  EXPECT_NE(ra.stats.dataflow_hash, rb.stats.dataflow_hash)
      << "different seeds should generate different inputs";
  EXPECT_NE(ea, eb);
}

// ---------------------------------------------------------------------
// Switch storms: a co-run at a tiny quantum hammers every switch-time
// flush path (VIVT I-cache flush, memo flash-clear, way-hint reset,
// drowsy re-drowse) thousands of times. FetchPath::switchProcess
// ENSUREs awakeLines() == 0 after each storm, so the drowsy invariant
// breaking surfaces as a SimError, and solo equivalence proves the
// storms never leak into architecture.

TEST(SwitchStorm, DrowsyCoRunSurvivesPerSwitchFlushStorms) {
  driver::SchemeSpec spec = driver::SchemeSpec::wayPlacement(16 * 1024);
  spec.drowsy_window = 16;  // every switch must re-drowse the cache

  driver::Runner runner;
  const driver::PreparedWorkload p = runner.prepare("crc");
  const driver::PreparedWorkload q = runner.prepare("bitcount");
  const driver::RunResult solo_p = runner.run(p, kXScale, spec);
  const driver::RunResult solo_q = runner.run(q, kXScale, spec);

  driver::SchemeSpec co = spec;
  co.corun_quantum = 499;  // prime: storms drift across loop bodies
  co.corun_tlb = cache::TlbSwitchPolicy::kFlush;
  driver::Runner::CoRunExtra extra;
  const driver::RunResult r = runner.runCoRun(
      {&p, &q}, kXScale, co, workloads::InputSize::kLarge, nullptr, &extra);

  ASSERT_EQ(extra.processes.size(), 2u);
  EXPECT_GT(extra.context_switches, 1000u) << "not a storm";
  EXPECT_GT(r.stats.drowsy.wakeups, 0u) << "drowsy lines never engaged";
  EXPECT_EQ(extra.processes[0].retired_pc_hash,
            solo_p.stats.retired_pc_hash);
  EXPECT_EQ(extra.processes[0].dataflow_hash, solo_p.stats.dataflow_hash);
  EXPECT_EQ(extra.processes[1].retired_pc_hash,
            solo_q.stats.retired_pc_hash);
  EXPECT_EQ(extra.processes[1].dataflow_hash, solo_q.stats.dataflow_hash);
  EXPECT_EQ(extra.processes[0].output,
            p.workload->expected(workloads::InputSize::kLarge));
  EXPECT_EQ(extra.processes[1].output,
            q.workload->expected(workloads::InputSize::kLarge));
}

TEST(SwitchStorm, MemoLinkStormsStayArchitecturallyInvisible) {
  const driver::SchemeSpec spec = driver::SchemeSpec::wayMemoization();

  driver::Runner runner;
  const driver::PreparedWorkload p = runner.prepare("crc");
  const driver::PreparedWorkload q = runner.prepare("bitcount");
  const driver::RunResult solo_p = runner.run(p, kXScale, spec);

  driver::SchemeSpec co = spec;
  co.corun_quantum = 499;
  driver::Runner::CoRunExtra extra;
  const driver::RunResult r = runner.runCoRun(
      {&p, &q}, kXScale, co, workloads::InputSize::kLarge, nullptr, &extra);

  EXPECT_GT(r.stats.link_flash_clears, extra.context_switches)
      << "each switch must flash-clear the links (plus normal refills)";
  EXPECT_EQ(extra.processes[0].retired_pc_hash,
            solo_p.stats.retired_pc_hash);
  EXPECT_EQ(extra.processes[0].output,
            p.workload->expected(workloads::InputSize::kLarge));
}

}  // namespace
}  // namespace wp
