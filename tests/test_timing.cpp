// Timing-model tests: scoreboard stalls, functional-unit latencies,
// branch prediction and fetch-stall accounting.
#include <gtest/gtest.h>

#include "pipeline/timing.hpp"

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

TEST(Timing, ResetClearsState) {
  TimingModel t(TimingConfig{});
  retire(t, alu(1, 2, 3), 0, 10, 0, false, 0);
  t.reset();
  EXPECT_EQ(t.cycles(), 0u);
  EXPECT_EQ(t.branchStats().branches, 0u);
}

}  // namespace
}  // namespace wp::pipeline
