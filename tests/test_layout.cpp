// Layout and linker tests: chain formation per paper §3, heaviest-first
// ordering, fall-through repair, relocation resolution — plus a
// property test that randomly generated programs compute identical
// results under every layout policy.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>

#include "asmkit/builder.hpp"
#include "layout/layout.hpp"
#include "layout/strategy.hpp"
#include "profile/profiler.hpp"
#include "sim/core.hpp"
#include "sim/processor.hpp"
#include "support/rng.hpp"

namespace wp {
namespace {

using namespace asmkit;

ir::Module twoFunctionModule() {
  ModuleBuilder mb;
  mb.bss("out", 8);
  auto& hot = mb.func("hot");
  const auto loop = hot.label();
  hot.movi(r0, 0);
  hot.movi(r1, 0);
  hot.bind(loop);
  hot.add(r0, r0, r1);
  hot.addi(r1, r1, 1);
  hot.cmpiBr(r1, 1000, Cond::kLt, loop);
  hot.la(r2, "out");
  hot.str(r0, r2);
  hot.ret();

  auto& cold = mb.func("cold");
  cold.movi(r0, 7);
  cold.la(r2, "out", 4);
  cold.str(r0, r2);
  cold.ret();

  auto& f = mb.func("main");
  f.prologue();
  f.call("hot");
  f.call("cold");
  f.epilogue();
  return mb.build();
}

TEST(Chains, RespectFallthroughAndCalls) {
  const ir::Module m = twoFunctionModule();
  const auto chains = layout::formChains(m);
  // Every fall-through pair must be in the same chain, adjacent.
  for (const auto& chain : chains) {
    for (std::size_t i = 0; i < chain.blocks.size(); ++i) {
      const ir::BasicBlock& b = m.blocks[chain.blocks[i]];
      if (b.fallthrough.has_value()) {
        ASSERT_LT(i + 1, chain.blocks.size())
            << "fall-through block ends a chain";
        EXPECT_EQ(chain.blocks[i + 1], *b.fallthrough);
      }
    }
  }
  // Chains partition the blocks.
  std::size_t total = 0;
  for (const auto& c : chains) total += c.blocks.size();
  EXPECT_EQ(total, m.blocks.size());
}

TEST(Chains, WeightIsDynamicInstructionCount) {
  ir::Module m = twoFunctionModule();
  for (ir::BasicBlock& b : m.blocks) b.exec_count = 2;
  const auto chains = layout::formChains(m);
  for (const auto& c : chains) {
    u64 expect = 0;
    for (const u32 id : c.blocks) expect += 2 * m.blocks[id].insts.size();
    EXPECT_EQ(c.weight, expect);
  }
}

TEST(Chains, WeightOverflowIsALoudError) {
  // A corrupt profile can push Σ(exec × insts) past 64 bits; silently
  // wrapping would reorder chains by garbage weights, so formChains must
  // refuse the profile instead.
  ir::Module m = twoFunctionModule();
  for (ir::BasicBlock& b : m.blocks) {
    b.exec_count = std::numeric_limits<u64>::max();
  }
  EXPECT_THROW(layout::formChains(m), SimError);
}

TEST(Order, HeaviestChainFirst) {
  ir::Module m = twoFunctionModule();
  // Profile: make "hot" hot.
  const mem::Image orig = layout::layoutImage(m, "original");
  mem::Memory memory;
  orig.loadInto(memory);
  profile::annotate(m, profile::profileImage(orig, memory));

  const auto order = layout::orderBlocks(m, layout::resolveStrategy("way_placement"));
  // The first placed block must belong to the hot loop's chain.
  const ir::Function* hot = m.findFunction("hot");
  EXPECT_EQ(order[0], hot->block_ids[0]);

  const mem::Image img = layout::link(m, order);
  EXPECT_EQ(img.function_addr.at("hot"), mem::kCodeBase);
}

TEST(Order, OriginalKeepsAuthoredOrder) {
  const ir::Module m = twoFunctionModule();
  const auto order = layout::orderBlocks(m, layout::resolveStrategy("original"));
  u32 expect = 0;
  for (const ir::Function& fn : m.functions) {
    for (const u32 id : fn.block_ids) EXPECT_EQ(order[expect++], id);
  }
}

TEST(Order, RandomIsAPermutationAndSeedStable) {
  const ir::Module m = twoFunctionModule();
  const auto a = layout::orderBlocks(m, layout::resolveStrategy("random"), 3);
  const auto b = layout::orderBlocks(m, layout::resolveStrategy("random"), 3);
  const auto c = layout::orderBlocks(m, layout::resolveStrategy("random"), 4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  std::vector<u32> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  for (u32 i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Linker, NoRepairsWhenFallthroughsIntact) {
  const ir::Module m = twoFunctionModule();
  const mem::Image img = layout::layoutImage(m, "original");
  EXPECT_EQ(img.code.size(), m.staticInstructions() * 4);
}

TEST(Linker, RepairsInsertedForBrokenFallthroughs) {
  const ir::Module m = twoFunctionModule();
  // A reversed order breaks most fall-throughs.
  auto order = layout::orderBlocks(m, layout::resolveStrategy("original"));
  std::reverse(order.begin(), order.end());
  const mem::Image img = layout::link(m, order);
  EXPECT_GT(img.code.size(), m.staticInstructions() * 4);
}

TEST(Linker, BlockAddressesCoverCode) {
  const ir::Module m = twoFunctionModule();
  const mem::Image img = layout::layoutImage(m, "original");
  EXPECT_EQ(img.block_addr.size(), m.blocks.size());
  for (const auto& [id, addr] : img.block_addr) {
    EXPECT_LE(mem::kCodeBase, addr);
    EXPECT_LT(addr, img.codeEnd());
    EXPECT_LE(addr, img.block_end.at(id));
  }
}

TEST(Linker, RejectsIncompleteOrder) {
  const ir::Module m = twoFunctionModule();
  std::vector<u32> order = {0};
  EXPECT_THROW(layout::link(m, order), SimError);
}

// ---------------------------------------------------------------------------
// Property test: random CFG programs behave identically under any layout.
// ---------------------------------------------------------------------------

// Generates a random reducible program: a chain of "segments", each a
// small diamond/loop/call/memory pattern over a running checksum in
// r4..r6, plus a scratch buffer for load/store segments.
ir::Module randomProgram(u64 seed) {
  Rng rng(seed);
  ModuleBuilder mb;
  mb.bss("out", 4);
  mb.bss("scratch", 256);

  const int nfuncs = 1 + static_cast<int>(rng.below(3));
  for (int fi = 0; fi < nfuncs; ++fi) {
    auto& g = mb.func("leaf" + std::to_string(fi));
    // r0 = mix(r0)
    g.muli(r0, r0, static_cast<i32>(3 + rng.below(97)));
    g.eori(r0, r0, static_cast<u32>(rng.below(0x10000)));
    const auto skip = g.label();
    g.cmpiBr(r0, 0, Cond::kGe, skip);
    g.mvn(r0, r0);
    g.bind(skip);
    g.ret();
  }
  // A two-level callee exercising nested calls under layout changes.
  {
    auto& g = mb.func("mid");
    g.prologue();
    g.call("leaf0");
    g.addi(r0, r0, 17);
    g.call("leaf0");
    g.epilogue();
  }

  auto& f = mb.func("main");
  f.prologue({r4, r5, r6});
  f.movi32(r4, static_cast<u32>(seed & 0xffff) | 1u);
  f.movi(r5, 0);

  const int segments = 3 + static_cast<int>(rng.below(6));
  for (int s = 0; s < segments; ++s) {
    switch (rng.below(5)) {
      case 0: {  // diamond
        const auto a = f.label();
        const auto join = f.label();
        f.andi(r6, r4, 1);
        f.cmpiBr(r6, 0, Cond::kEq, a);
        f.muli(r4, r4, 17);
        f.jmp(join);
        f.bind(a);
        f.addi(r4, r4, 1234);
        f.bind(join);
        break;
      }
      case 1: {  // counted loop
        const auto loop = f.label();
        f.movi(r6, static_cast<i32>(1 + rng.below(20)));
        f.bind(loop);
        f.add(r4, r4, r6);
        f.lsli(r12, r4, 1);
        f.eor(r4, r4, r12);
        f.subi(r6, r6, 1);
        f.cmpiBr(r6, 0, Cond::kGt, loop);
        break;
      }
      case 2: {  // call
        f.mov(r0, r4);
        f.call("leaf" + std::to_string(rng.below(nfuncs)));
        f.add(r4, r4, r0);
        break;
      }
      case 3: {  // nested call
        f.mov(r0, r4);
        f.call("mid");
        f.eor(r4, r4, r0);
        break;
      }
      default: {  // memory round-trip through the scratch buffer
        const i32 slot = static_cast<i32>(rng.below(60)) * 4;
        f.la(r12, "scratch", slot);
        f.str(r4, r12);
        f.lsli(r6, r4, 3);
        f.ldr(r12, r12);
        f.add(r4, r12, r6);
        f.la(r12, "scratch", slot);
        f.ldrb(r6, r12, static_cast<i32>(rng.below(4)));
        f.add(r4, r4, r6);
        break;
      }
    }
    f.add(r5, r5, r4);
  }
  f.la(r0, "out");
  f.str(r5, r0);
  f.epilogue({r4, r5, r6});
  return mb.build();
}

u32 runAndReadOut(const ir::Module& m, const std::string& spec, u64 seed) {
  const mem::Image img = layout::layoutImage(m, spec, seed);
  mem::Memory memory;
  img.loadInto(memory);
  sim::Core core(img, memory);
  sim::CoreState st = core.initialState();
  u64 steps = 0;
  while (!st.halted) {
    EXPECT_LT(steps++, 2'000'000u);
    core.step(st);
  }
  return memory.load32(mem::kDataBase);
}

class LayoutEquivalence : public ::testing::TestWithParam<u64> {};

TEST_P(LayoutEquivalence, AllPoliciesComputeSameResult) {
  ir::Module m = randomProgram(GetParam());
  const u32 original = runAndReadOut(m, "original", 0);

  // Annotate with a profile so the WP order is meaningful.
  const mem::Image orig = layout::layoutImage(m, "original");
  mem::Memory memory;
  orig.loadInto(memory);
  profile::annotate(m, profile::profileImage(orig, memory));

  EXPECT_EQ(runAndReadOut(m, "way_placement", 0), original);
  for (u64 shuffle = 1; shuffle <= 3; ++shuffle) {
    EXPECT_EQ(runAndReadOut(m, "random", shuffle), original)
        << "shuffle seed " << shuffle;
  }

  // Parameter overrides reorder and split chains but must preserve
  // semantics just like the registered defaults.
  EXPECT_EQ(runAndReadOut(
                m, "exttsp{passes=call_distance+exttsp,chain_hot_threshold=4}",
                0),
            original);

  // Every registered strategy — including the literature orderings and
  // the autotuned configuration — must preserve semantics too.
  for (const layout::LayoutStrategy* s : layout::strategies()) {
    const layout::LayoutResult laid = layout::runPipeline(m, *s);
    mem::Memory memory;
    laid.image.loadInto(memory);
    sim::Core core(laid.image, memory);
    sim::CoreState st = core.initialState();
    u64 steps = 0;
    while (!st.halted) {
      ASSERT_LT(steps++, 2'000'000u) << s->name;
      core.step(st);
    }
    EXPECT_EQ(memory.load32(mem::kDataBase), original) << s->name;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, LayoutEquivalence,
                         ::testing::Range<u64>(1, 41));

// The fetch scheme must never affect semantics either: run random
// programs on the full processor under every scheme and compare the
// architectural result and instruction counts.
class SchemeEquivalence : public ::testing::TestWithParam<u64> {};

TEST_P(SchemeEquivalence, AllSchemesComputeSameResult) {
  ir::Module m = randomProgram(GetParam() * 1000003ULL);
  const mem::Image img = layout::layoutImage(m, "original");

  std::optional<u32> expected;
  std::optional<u64> expected_insts;
  for (const cache::Scheme scheme :
       {cache::Scheme::kBaseline, cache::Scheme::kWayPlacement,
        cache::Scheme::kWayMemoization, cache::Scheme::kWayPrediction}) {
    sim::MachineConfig cfg = sim::baselineMachine(
        scheme, scheme == cache::Scheme::kWayPlacement ? 1024 : 0);
    cfg.fetch.icache = cache::CacheGeometry{2048, 32, 8};  // tiny: misses!
    mem::Memory memory;
    img.loadInto(memory);
    sim::Processor proc(cfg, img, memory);
    const sim::RunStats stats = proc.run();
    const u32 result = memory.load32(mem::kDataBase);
    if (!expected.has_value()) {
      expected = result;
      expected_insts = stats.instructions;
    } else {
      EXPECT_EQ(result, *expected) << cache::schemeName(scheme);
      EXPECT_EQ(stats.instructions, *expected_insts)
          << cache::schemeName(scheme);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, SchemeEquivalence,
                         ::testing::Range<u64>(1, 13));

// ---------------------------------------------------------------------------
// Strategy registry: names, aliases, env knob, and the pipeline report.
// ---------------------------------------------------------------------------

TEST(Strategy, RegistryListsTheExpectedOrderings) {
  const std::vector<std::string> names = layout::strategyNames();
  const std::vector<std::string> expected = {
      "original", "way_placement", "random",
      "call_distance", "exttsp", "autotuned"};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(layout::defaultStrategyName(), "way_placement");
  for (const std::string& n : names) {
    EXPECT_EQ(layout::parseStrategy(n).name, n);
  }
}

TEST(Strategy, LegacyPolicySpellingsRoundTripThroughParseStrategy) {
  // The legacy Policy spellings (including the hyphenated
  // "way-placement" that the removed policyName printed and that
  // recorded WP_JSON references carry) must resolve to registered
  // strategies.
  EXPECT_EQ(layout::parseStrategy("original").name, "original");
  EXPECT_EQ(layout::parseStrategy("way-placement").name, "way_placement");
  EXPECT_EQ(layout::parseStrategy("random").name, "random");
  // The alias resolves to the same canonical spec as the primary name,
  // so memo keys and store digests agree no matter the spelling used.
  EXPECT_EQ(layout::resolveStrategy("way-placement").canonical(),
            "way_placement");
}

TEST(Strategy, ParseRejectsUnknownNamesListingTheValidOnes) {
  EXPECT_EQ(layout::findStrategy("ext-tsp"), nullptr);
  try {
    (void)layout::parseStrategy("ext-tsp");
    FAIL() << "parseStrategy accepted an unknown name";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("way_placement"), std::string::npos)
        << e.what();
  }
}

TEST(StrategyDeathTest, UnknownWpLayoutExitsWithStatusOne) {
  // Same strictness as WP_SEED / WP_JOBS: a typo must kill the
  // experiment at startup, not silently run the default ordering.
  EXPECT_EXIT(
      {
        setenv("WP_LAYOUT", "heaviest_first", 1);
        (void)layout::strategyFromEnv();
      },
      ::testing::ExitedWithCode(1), "WP_LAYOUT");
}

TEST(Strategy, EnvKnobSelectsAndCanonicalizes) {
  setenv("WP_LAYOUT", "exttsp", 1);
  EXPECT_EQ(layout::strategyFromEnv(), "exttsp");
  setenv("WP_LAYOUT", "way-placement", 1);  // alias canonicalizes
  EXPECT_EQ(layout::strategyFromEnv(), "way_placement");
  unsetenv("WP_LAYOUT");
  EXPECT_EQ(layout::strategyFromEnv(), layout::defaultStrategyName());
}

// The refactor from the layout.cpp monolith into the pass pipeline must
// not move a single byte: way_placement's image is the legacy
// heaviest-first algorithm's image, reproduced here independently.
TEST(Strategy, WayPlacementImageMatchesLegacyAlgorithmBitForBit) {
  for (const u64 seed : {3u, 17u, 42u}) {
    ir::Module m = randomProgram(seed);
    const mem::Image orig =
        layout::layoutImage(m, "original");
    mem::Memory memory;
    orig.loadInto(memory);
    profile::annotate(m, profile::profileImage(orig, memory));

    // The pre-refactor algorithm, verbatim: stable-sort the chains by
    // descending weight and concatenate.
    auto chains = layout::formChains(m);
    std::stable_sort(chains.begin(), chains.end(),
                     [](const auto& a, const auto& b) {
                       return a.weight > b.weight;
                     });
    std::vector<u32> legacy_order;
    for (const auto& c : chains) {
      legacy_order.insert(legacy_order.end(), c.blocks.begin(),
                          c.blocks.end());
    }
    const mem::Image legacy = layout::link(m, legacy_order);

    const layout::LayoutResult laid = layout::runPipeline(m, "way_placement");
    EXPECT_EQ(laid.image.code, legacy.code) << "seed " << seed;
    EXPECT_EQ(laid.image.block_addr, legacy.block_addr) << "seed " << seed;
    EXPECT_EQ(laid.image.entry, legacy.entry) << "seed " << seed;
  }
}

TEST(Strategy, ReportExplainsThePlacement) {
  ir::Module m = randomProgram(11);
  const mem::Image orig = layout::layoutImage(m, "original");
  mem::Memory memory;
  orig.loadInto(memory);
  profile::annotate(m, profile::profileImage(orig, memory));

  for (const layout::LayoutStrategy* s : layout::strategies()) {
    const layout::LayoutResult laid = layout::runPipeline(m, *s, /*seed=*/5);
    const layout::LayoutReport& r = laid.report;
    EXPECT_EQ(r.strategy, s->name);
    EXPECT_EQ(r.chains, layout::formChains(m).size()) << s->name;
    EXPECT_EQ(r.spans.size(), m.blocks.size()) << s->name;
    // Image size accounts for exactly the counted repairs.
    EXPECT_EQ(laid.image.code.size(),
              (m.staticInstructions() + r.repairs) * 4)
        << s->name;
    // Coverage is a CDF over the placed profile: monotone in the area,
    // complete once the area swallows the whole image.
    EXPECT_GT(r.dynamicInstructions(), 0u) << s->name;
    const u32 whole = static_cast<u32>(laid.image.code.size()) + 1024;
    EXPECT_LE(r.coverage(1024), r.coverage(4096)) << s->name;
    EXPECT_DOUBLE_EQ(r.coverage(whole), 1.0) << s->name;
  }

  // Keeping every fall-through intact means zero repairs for original.
  EXPECT_EQ(layout::runPipeline(m, "original").report.repairs, 0u);
}

// ---------------------------------------------------------------------------
// The literature orderings: structural properties.
// ---------------------------------------------------------------------------

void expectChainsIntact(const ir::Module& m, const std::vector<u32>& order,
                        const std::string& label) {
  // A permutation of all blocks...
  std::vector<u32> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (u32 i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(sorted[i], i) << label;
  }
  // ...that keeps every must-respect chain contiguous and in chain
  // order (both new strategies move whole chains, never blocks).
  std::vector<u32> pos(order.size());
  for (u32 i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const auto& c : layout::formChains(m)) {
    for (std::size_t i = 1; i < c.blocks.size(); ++i) {
      EXPECT_EQ(pos[c.blocks[i]], pos[c.blocks[i - 1]] + 1)
          << label << ": chain split at block " << c.blocks[i];
    }
  }
}

TEST(Strategy, NewOrderingsKeepChainsIntact) {
  for (const u64 seed : {2u, 9u, 23u}) {
    ir::Module m = randomProgram(seed);
    const mem::Image orig =
        layout::layoutImage(m, "original");
    mem::Memory memory;
    orig.loadInto(memory);
    profile::annotate(m, profile::profileImage(orig, memory));

    for (const char* name : {"call_distance", "exttsp", "autotuned"}) {
      const std::vector<u32> order =
          layout::orderBlocks(m, layout::resolveStrategy(name), /*seed=*/0);
      expectChainsIntact(m, order, name);
    }
  }
}

TEST(Strategy, CallDistanceWithZeroReachIsPlainWayPlacement) {
  // With no byte budget nothing merges, and the heaviest-first group
  // concatenation degenerates to the paper's ordering exactly.
  ir::Module m = randomProgram(5);
  const mem::Image orig = layout::layoutImage(m, "original");
  mem::Memory memory;
  orig.loadInto(memory);
  profile::annotate(m, profile::profileImage(orig, memory));

  EXPECT_EQ(
      layout::orderBlocks(
          m, layout::resolveStrategy("call_distance{call_reach_bytes=0}")),
      layout::orderBlocks(m, layout::resolveStrategy("way_placement")));
}

// ---------------------------------------------------------------------------
// Strategy specs: parameter overrides, canonicalization, env parsing.
// ---------------------------------------------------------------------------

TEST(StrategySpec, CanonicalElidesDefaultsAndRoundTrips) {
  // A bare name stays a bare name: every pre-parameterization cell key,
  // checkpoint record and store digest remains valid.
  for (const layout::LayoutStrategy* s : layout::strategies()) {
    EXPECT_EQ(layout::resolveStrategy(s->name).canonical(), s->name);
  }
  // Explicitly spelling a registered default is the same spec.
  EXPECT_EQ(
      layout::resolveStrategy("call_distance{call_reach_bytes=4096}")
          .canonical(),
      "call_distance");
  // Overridden keys print in fixed key order regardless of input order,
  // and the canonical string re-resolves to an equal spec.
  const layout::StrategySpec spec = layout::resolveStrategy(
      "exttsp{tsp_forward_weight=0.2,chain_hot_threshold=64,"
      "passes=call_distance+exttsp}");
  EXPECT_EQ(spec.canonical(),
            "exttsp{passes=call_distance+exttsp,chain_hot_threshold=64,"
            "tsp_forward_weight=0.2}");
  EXPECT_TRUE(layout::resolveStrategy(spec.canonical()) == spec);
}

TEST(StrategySpec, MalformedOverridesAreRejectedWithTheValidKeys) {
  const auto expectThrows = [](const std::string& spec,
                               const std::string& needle) {
    try {
      (void)layout::resolveStrategy(spec);
      FAIL() << "resolveStrategy accepted " << spec;
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << spec << " -> " << e.what();
    }
  };
  // Unknown key: the message lists the valid ones.
  expectThrows("way_placement{reach=1}", "call_reach_bytes");
  // Bad values, missing '=' and unterminated spec are all startup
  // errors, never silent defaults.
  expectThrows("way_placement{call_reach_bytes=banana}", "call_reach_bytes");
  expectThrows("exttsp{tsp_forward_weight=-1}", "tsp_forward_weight");
  expectThrows("way_placement{chain_hot_threshold}", "chain_hot_threshold");
  expectThrows("way_placement{passes=original", "way_placement{");
  // Unknown pass name in a pass list: lists the registered passes.
  expectThrows("way_placement{passes=original+hottest}", "call_distance");
}

TEST(StrategySpec, HotThresholdSplitsColdChainsBehindTheHotOnes) {
  ir::Module m = randomProgram(13);
  const mem::Image orig = layout::layoutImage(m, "original");
  mem::Memory memory;
  orig.loadInto(memory);
  profile::annotate(m, profile::profileImage(orig, memory));

  // An impossible threshold marks every chain cold: nothing reaches the
  // ordering passes and the cold tail is the formation order, i.e. the
  // authored order — the original image, bit for bit.
  const mem::Image all_cold = layout::layoutImage(
      m, "way_placement{chain_hot_threshold=18446744073709551615}");
  EXPECT_EQ(all_cold.code, orig.code);
  EXPECT_EQ(all_cold.block_addr, orig.block_addr);

  // A moderate threshold still yields a chain-respecting permutation,
  // with every hot chain placed ahead of every cold one.
  const layout::StrategySpec spec =
      layout::resolveStrategy("way_placement{chain_hot_threshold=8}");
  const std::vector<u32> order = layout::orderBlocks(m, spec);
  expectChainsIntact(m, order, "hot/cold split");
  std::vector<u32> pos(order.size());
  for (u32 i = 0; i < order.size(); ++i) pos[order[i]] = i;
  u32 max_hot = 0;
  u32 min_cold = static_cast<u32>(order.size());
  for (const auto& c : layout::formChains(m)) {
    for (const u32 b : c.blocks) {
      if (c.weight >= 8) {
        max_hot = std::max(max_hot, pos[b]);
      } else {
        min_cold = std::min(min_cold, pos[b]);
      }
    }
  }
  EXPECT_LT(max_hot, min_cold);
}

TEST(StrategyDeathTest, GarbageWpLayoutParamsExitsWithStatusOne) {
  EXPECT_EXIT(
      {
        setenv("WP_LAYOUT", "way_placement{call_reach_bytes=soon}", 1);
        (void)layout::strategyFromEnv();
      },
      ::testing::ExitedWithCode(1), "WP_LAYOUT: .*call_reach_bytes=soon");
  EXPECT_EXIT(
      {
        setenv("WP_LAYOUT", "way_placement{frobnicate=1}", 1);
        (void)layout::strategyFromEnv();
      },
      ::testing::ExitedWithCode(1), "WP_LAYOUT: .*frobnicate");
}

TEST(Strategy, EnvParamsOverrideTheSelectedStrategy) {
  setenv("WP_LAYOUT", "exttsp{tsp_forward_bytes=512}", 1);
  EXPECT_EQ(layout::strategyFromEnv(), "exttsp{tsp_forward_bytes=512}");
  // Overriding back to the registered default canonicalizes away.
  setenv("WP_LAYOUT", "exttsp{tsp_forward_bytes=1024}", 1);
  EXPECT_EQ(layout::strategyFromEnv(), "exttsp");
  unsetenv("WP_LAYOUT");
}

// ---------------------------------------------------------------------------
// LayoutReport edge cases: the coverage CDF and dynamic-instruction
// accounting must stay well-defined on degenerate inputs.
// ---------------------------------------------------------------------------

TEST(LayoutReport, EmptyReportHasNoProfileAndZeroCoverage) {
  const layout::LayoutReport r;
  EXPECT_EQ(r.dynamicInstructions(), 0u);
  EXPECT_DOUBLE_EQ(r.coverage(0), 0.0);
  EXPECT_DOUBLE_EQ(r.coverage(4096), 0.0);
}

TEST(LayoutReport, ZeroExecProfileReportsZeroCoverageNotNan) {
  // An unannotated module lays out fine; its report just carries no
  // profile, and coverage must stay 0.0 (not 0/0) at every area.
  ir::Module m = twoFunctionModule();
  const layout::LayoutResult laid = layout::runPipeline(m, "original");
  EXPECT_EQ(laid.report.dynamicInstructions(), 0u);
  EXPECT_DOUBLE_EQ(laid.report.coverage(1024), 0.0);
  const u32 whole = static_cast<u32>(laid.image.code.size()) + 1024;
  EXPECT_DOUBLE_EQ(laid.report.coverage(whole), 0.0);
}

TEST(LayoutReport, BlockStraddlingTheAreaBoundaryCountsPerInstruction) {
  // One 16-instruction block at the segment base, executed once: a
  // 32-byte area covers exactly its first 8 instructions.
  layout::LayoutReport r;
  r.spans.push_back({/*addr=*/mem::kCodeBase, /*insts=*/16, /*exec=*/1});
  EXPECT_EQ(r.dynamicInstructions(), 16u);
  EXPECT_DOUBLE_EQ(r.coverage(0), 0.0);
  EXPECT_DOUBLE_EQ(r.coverage(32), 0.5);
  // A non-instruction-aligned boundary rounds down to whole covered
  // instructions.
  EXPECT_DOUBLE_EQ(r.coverage(34), 0.5);
  EXPECT_DOUBLE_EQ(r.coverage(36), 9.0 / 16.0);
  EXPECT_DOUBLE_EQ(r.coverage(64), 1.0);
  // A second, never-executed span beyond the boundary changes nothing.
  r.spans.push_back({/*addr=*/mem::kCodeBase + 64, /*insts=*/4, /*exec=*/0});
  EXPECT_DOUBLE_EQ(r.coverage(32), 0.5);
  EXPECT_DOUBLE_EQ(r.coverage(64), 1.0);
}

// ---------------------------------------------------------------------------
// Property test: ANY permutation of the blocks is architecturally
// equivalent to the original layout. The Emission stage's fall-through
// repair is what makes every ordering advisory-only, so this is the
// invariant that lets a strategy be wrong about performance but never
// about results. Cross-layout equality is asserted on dataflow_hash and
// the program output — retired_pc_hash hashes *placed* PCs and is
// layout-dependent by design (see sim::RunStats), so for it we assert
// same-permutation reproducibility instead.
// ---------------------------------------------------------------------------

struct ProcRun {
  sim::RunStats stats;
  u32 out = 0;
};

ProcRun runOnProcessor(const mem::Image& img) {
  sim::MachineConfig cfg =
      sim::baselineMachine(cache::Scheme::kBaseline, 0);
  mem::Memory memory;
  img.loadInto(memory);
  sim::Processor proc(cfg, img, memory);
  ProcRun r;
  r.stats = proc.run();
  r.out = memory.load32(mem::kDataBase);
  return r;
}

class PermutationEquivalence : public ::testing::TestWithParam<u64> {};

TEST_P(PermutationEquivalence, AnyBlockPermutationPreservesDataflow) {
  ir::Module m = randomProgram(GetParam() * 7919ULL + 1);
  const ProcRun original = runOnProcessor(
      layout::layoutImage(m, "original"));

  for (u64 shuffle = 1; shuffle <= 4; ++shuffle) {
    const auto order = layout::orderBlocks(m, layout::resolveStrategy("random"),
                                           shuffle);
    const mem::Image img = layout::link(m, order);
    const ProcRun permuted = runOnProcessor(img);
    EXPECT_EQ(permuted.out, original.out) << "shuffle " << shuffle;
    EXPECT_EQ(permuted.stats.dataflow_hash, original.stats.dataflow_hash)
        << "shuffle " << shuffle;
    // The layout-dependent retired-PC stream is still deterministic for
    // a fixed permutation.
    EXPECT_EQ(runOnProcessor(img).stats.retired_pc_hash,
              permuted.stats.retired_pc_hash)
        << "shuffle " << shuffle;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, PermutationEquivalence,
                         ::testing::Range<u64>(1, 11));

}  // namespace
}  // namespace wp
