// Timing-model tests: scoreboard stalls, functional-unit latencies,
// branch prediction, fetch-stall accounting, and the stall windows that
// time a machine against a shared reference scoreboard.
#include <gtest/gtest.h>

#include <vector>

#include "pipeline/timing.hpp"
#include "support/rng.hpp"

namespace wp::pipeline {
namespace {

using isa::Instruction;
using isa::Opcode;

Instruction alu(u8 rd, u8 rn, u8 rm) {
  return {Opcode::kAdd, rd, rn, rm, 0};
}

/// Retires @p inst with its register-use decode, as the retire loop
/// does with the BlockCache's precomputed copy.
void retire(TimingModel& t, const Instruction& inst, u32 pc,
            u32 fetch_cycles, u32 mem_cycles, bool taken, u32 target) {
  t.onInstruction(inst, regUsesOf(inst), pc, fetch_cycles, mem_cycles, taken,
                  target);
}

TEST(RegUse, CoversKeyShapes) {
  RegUse u = regUsesOf({Opcode::kAdd, 1, 2, 3, 0});
  EXPECT_TRUE(u.has_dst);
  EXPECT_EQ(u.dst, 1);
  EXPECT_EQ(u.num_srcs, 2u);

  u = regUsesOf({Opcode::kMla, 1, 2, 3, 0});
  EXPECT_EQ(u.num_srcs, 3u);  // accumulator is also a source

  u = regUsesOf({Opcode::kCmp, 0, 2, 3, 0});
  EXPECT_FALSE(u.has_dst);
  EXPECT_TRUE(u.writes_flags);

  u = regUsesOf({Opcode::kBeq, 0, 0, 0, 4});
  EXPECT_TRUE(u.reads_flags);

  u = regUsesOf({Opcode::kBl, 0, 0, 0, 4});
  EXPECT_TRUE(u.has_dst);
  EXPECT_EQ(u.dst, isa::kLinkReg);

  u = regUsesOf({Opcode::kStr, 1, 2, 0, 0});
  EXPECT_FALSE(u.has_dst);
  EXPECT_EQ(u.num_srcs, 2u);  // data + base
}

TEST(Timing, IndependentAluChainIsOneCpi) {
  TimingModel t(TimingConfig{});
  for (u32 i = 0; i < 100; ++i) {
    retire(t, alu(static_cast<u8>(i % 4), 4, 5), i * 4, 1, 0, false, 0);
  }
  EXPECT_EQ(t.cycles(), 100u);
}

TEST(Timing, LoadUseStalls) {
  TimingConfig cfg;
  cfg.load_use_latency = 3;
  TimingModel t(cfg);
  retire(t, {Opcode::kLdr, 1, 2, 0, 0}, 0, 1, /*mem=*/1, false, 0);
  const u64 after_load = t.cycles();
  retire(t, alu(3, 1, 1), 4, 1, 0, false, 0);  // uses r1 immediately
  EXPECT_GT(t.cycles(), after_load + 1);
}

TEST(Timing, IndependentInstructionAfterLoadDoesNotStall) {
  TimingModel t(TimingConfig{});
  retire(t, {Opcode::kLdr, 1, 2, 0, 0}, 0, 1, 1, false, 0);
  const u64 after_load = t.cycles();
  retire(t, alu(3, 4, 5), 4, 1, 0, false, 0);
  EXPECT_EQ(t.cycles(), after_load + 1);
}

TEST(Timing, MultiplyLatencySeenByConsumer) {
  TimingConfig cfg;
  cfg.mul_latency = 3;
  TimingModel t(cfg);
  retire(t, {Opcode::kMul, 1, 2, 3, 0}, 0, 1, 0, false, 0);
  const u64 after_mul = t.cycles();
  retire(t, alu(4, 1, 1), 4, 1, 0, false, 0);
  EXPECT_EQ(t.cycles(), after_mul + cfg.mul_latency);
}

TEST(Timing, FetchStallsAddDirectly) {
  TimingModel t(TimingConfig{});
  retire(t, alu(1, 2, 3), 0, /*fetch=*/59, 0, false, 0);
  EXPECT_EQ(t.cycles(), 59u);
}

TEST(Timing, BtbLearnsLoopBranch) {
  TimingConfig cfg;
  cfg.branch_mispredict_penalty = 4;
  TimingModel t(cfg);
  // A backward branch taken 50 times: first occurrences mispredict,
  // steady state predicts correctly.
  for (int i = 0; i < 50; ++i) {
    retire(t, {Opcode::kBne, 0, 0, 0, -4}, 0x100, 1, 0, true, 0xf4);
  }
  const BranchStats& s = t.branchStats();
  EXPECT_EQ(s.branches, 50u);
  EXPECT_LE(s.mispredicts, 2u);
}

TEST(Timing, AlternatingBranchMispredicts) {
  TimingModel t(TimingConfig{});
  for (int i = 0; i < 40; ++i) {
    retire(t, {Opcode::kBne, 0, 0, 0, -4}, 0x100, 1, 0, i % 2 == 0, 0xf4);
  }
  EXPECT_GT(t.branchStats().mispredicts, 10u);
}

TEST(Timing, MispredictPenaltyCharged) {
  TimingConfig cfg;
  cfg.branch_mispredict_penalty = 4;
  TimingModel t(cfg);
  retire(t, {Opcode::kB, 0, 0, 0, 16}, 0, 1, 0, true, 0x44);
  // Cold BTB: the taken branch mispredicts and pays 4 cycles.
  EXPECT_EQ(t.cycles(), 1u + 4u);
}

// ---------------------------------------------------------------------
// Stall windows: a machine timed against a reference scoreboard whose
// every fetch costs one cycle must count exactly the cycles of a plain
// scoreboard fed its own fetch cycles.

/// A seeded random instruction: up to three sources, maybe a
/// destination, flag use and any issue class.
RegUse randomUse(Rng& rng) {
  RegUse u;
  u.num_srcs = static_cast<u8>(rng.below(4));
  for (u32 i = 0; i < u.num_srcs; ++i) {
    u.srcs[i] = static_cast<u8>(rng.below(isa::kNumRegisters));
  }
  u.has_dst = rng.below(4) != 0;
  u.dst = static_cast<u8>(rng.below(isa::kNumRegisters));
  u.reads_flags = rng.below(6) == 0;
  u.writes_flags = rng.below(6) == 0;
  u.op_class = static_cast<OpClass>(rng.below(4));
  return u;
}

/// A fetch stall: a way-hint second access, a TLB walk, a miss, or a
/// miss with a walk (Table 1 latencies, 32 B lines).
u32 randomStall(Rng& rng) {
  constexpr u32 kStalls[] = {2, 21, 59, 79};
  return kStalls[rng.below(4)];
}

TEST(StallWindow, MatchesAPlainScoreboardAfterEveryInstruction) {
  const TimingConfig config;
  u64 windows = 0;
  u64 stalls_in_open_windows = 0;
  u64 back_to_back_stalls = 0;
  for (const u64 seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Scoreboard plain(config);
    Scoreboard reference(config);
    StallWindow window(config);
    bool stalled_before = false;
    for (u32 batch = 0; batch < 4000; ++batch) {
      // A batch of 1-8 instructions; its first fetch stalls now and
      // then, in bursts that put stalls into open windows and into
      // consecutive batches, and a later fetch rarely (the hooked and
      // drowsy machines' one-instruction fetches).
      const u32 n = 1 + static_cast<u32>(rng.below(8));
      std::vector<u32> fetch(n, 1);
      const bool burst = batch % 500 < 12;
      if (rng.below(burst ? 2 : 40) == 0) fetch[0] = randomStall(rng);
      if (rng.below(100) == 0) fetch[rng.below(n)] = randomStall(rng);
      bool stalled = false;
      for (const u32 c : fetch) stalled |= c != 1;
      if (stalled && window.isOpen()) ++stalls_in_open_windows;
      if (stalled && stalled_before) ++back_to_back_stalls;
      stalled_before = stalled;

      const ScoreboardState at = reference.state();
      const bool timed = stalled || window.isOpen();
      if (timed && !window.isOpen()) {
        window.open(at);
        ++windows;
      }
      for (u32 i = 0; i < n; ++i) {
        const RegUse use = randomUse(rng);
        const bool memory =
            use.op_class == OpClass::kLoad || use.op_class == OpClass::kStore;
        // D-cache cycles: a hit, or now and then a full miss.
        const u32 mem = !memory ? 0 : rng.below(10) == 0 ? 59 : 1;
        const bool mispredict = rng.below(12) == 0;
        plain.onInstruction(use, fetch[i], mem, mispredict);
        reference.onInstruction(use, 1, mem, mispredict);
        if (timed) window.onInstruction(use, fetch[i], mem, mispredict);
        ASSERT_EQ(window.cycles(reference.cycles()), plain.cycles())
            << "batch " << batch << ", instruction " << i;
      }
      if (timed) window.tryClose();
    }
  }
  EXPECT_GT(windows, 0u);
  EXPECT_GT(stalls_in_open_windows, 0u);
  EXPECT_GT(back_to_back_stalls, 0u);
}

TEST(StallWindow, ClosesWithTheStallAsItsDelta) {
  const TimingConfig config;
  Scoreboard reference(config);
  StallWindow window(config);
  // Nothing outstanding: a 59-cycle miss shifts the machine by 58, and
  // the window closes after its one instruction.
  window.open(reference.state());
  window.onInstruction(regUsesOf(alu(1, 2, 3)), 59, 0, false);
  reference.onInstruction(regUsesOf(alu(1, 2, 3)), 1, 0, false);
  window.tryClose();
  EXPECT_FALSE(window.isOpen());
  EXPECT_EQ(reference.cycles(), 1u);
  EXPECT_EQ(window.cycles(reference.cycles()), 59u);

  // A load in flight on the reference drains during the machine's
  // stall, so the two disagree until the reference's slack runs out.
  const RegUse load = regUsesOf({Opcode::kLdr, 4, 2, 0, 0});
  reference.onInstruction(load, 1, 59, false);
  window.open(reference.state());
  window.onInstruction(regUsesOf(alu(5, 6, 7)), 21, 0, false);
  reference.onInstruction(regUsesOf(alu(5, 6, 7)), 1, 0, false);
  window.tryClose();
  EXPECT_TRUE(window.isOpen());
}

TEST(StallWindow, StateRejectsASlackPastItsByte) {
  TimingConfig config;
  Scoreboard sb(config);
  // A load whose D-cache access takes 300 cycles leaves its register
  // ready about 300 cycles out: no byte holds that slack.
  sb.onInstruction(regUsesOf({Opcode::kLdr, 1, 2, 0, 0}), 1, 300, false);
  EXPECT_THROW((void)sb.state(), SimError);
  // A state restores to the same slacks, shifted.
  Scoreboard a(config);
  a.onInstruction(regUsesOf({Opcode::kLdr, 1, 2, 0, 0}), 1, 59, false);
  Scoreboard b(config);
  b.restore(a.state(), 100);
  EXPECT_EQ(b.cycles(), a.cycles() + 100);
  EXPECT_TRUE(b.sameSlack(a));
}

}  // namespace
}  // namespace wp::pipeline
