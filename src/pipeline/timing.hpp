// Timing model of the 7-stage, single-issue, in-order XScale-like core
// (Table 1): in-order issue with a register scoreboard, out-of-order
// completion, one ALU, one MAC, one load/store unit, a branch target
// buffer, and blocking caches.
//
// The model tracks, per architectural register, the cycle its value
// becomes available; an instruction issues at the max of the pipeline
// cycle and its source-ready cycles, matching a scoreboard stall. Fetch
// and data-cache penalties are supplied per instruction by the caller
// (the retire loop in sim::GuestScheduler), which owns the cache models.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "isa/isa.hpp"
#include "support/ensure.hpp"

namespace wp::pipeline {

struct TimingConfig {
  u32 branch_mispredict_penalty = 4;
  u32 load_use_latency = 3;  ///< cycles before a load's result is usable
  u32 mul_latency = 3;       ///< MAC unit latency
  u32 btb_entries = 128;
};

struct BranchStats {
  u64 branches = 0;
  u64 mispredicts = 0;
  void reset() { *this = BranchStats{}; }
};

/// Source/destination registers of an instruction, plus flag use/def.
struct RegUse {
  std::array<u8, 3> srcs{};
  u32 num_srcs = 0;
  bool has_dst = false;
  u8 dst = 0;
  bool reads_flags = false;
  bool writes_flags = false;
};

[[nodiscard]] RegUse regUsesOf(const isa::Instruction& inst);

class TimingModel {
 public:
  explicit TimingModel(const TimingConfig& config);

  /// Advances time over one committed instruction. Runs once per
  /// committed instruction — defined inline so the retire loop can
  /// absorb it.
  /// @param use           regUsesOf(inst); the BlockCache precomputes it
  ///                      per static instruction, so the hot loop skips
  ///                      the format/opcode switch
  /// @param fetch_cycles  cycles the fetch path reported (>= 1)
  /// @param mem_cycles    D-cache cycles for loads/stores (0 otherwise)
  /// @param taken         branch outcome (control transfers only)
  /// @param target        branch target (control transfers only)
  void onInstruction(const isa::Instruction& inst, const RegUse& use, u32 pc,
                     u32 fetch_cycles, u32 mem_cycles, bool taken, u32 target) {
    WP_ENSURE(fetch_cycles >= 1, "fetch must take at least one cycle");

    // Fetch stalls (cache miss, TLB walk, way-hint second access) delay
    // the pipeline front end directly.
    cycle_ += fetch_cycles - 1;

    // Scoreboard: issue waits for sources.
    u64 issue = cycle_ + 1;
    for (u32 i = 0; i < use.num_srcs; ++i) {
      issue = std::max(issue, reg_ready_[use.srcs[i]]);
    }
    if (use.reads_flags) issue = std::max(issue, flags_ready_);
    cycle_ = issue;

    // Completion latency (out-of-order completion: later independent
    // instructions are not delayed, so only the scoreboard entry moves).
    u64 result_ready = issue + 1;
    if (isa::isMultiply(inst.op)) {
      result_ready = issue + config_.mul_latency;
    } else if (isa::isLoad(inst.op)) {
      // mem_cycles covers the D-cache access (1 on a hit); the load-use
      // latency covers the remaining pipeline distance.
      result_ready = issue + mem_cycles + config_.load_use_latency - 1;
    } else if (isa::isStore(inst.op)) {
      // Stores retire through the write buffer; a miss stalls the unit.
      if (mem_cycles > 1) cycle_ += mem_cycles - 1;
    }
    if (use.has_dst) reg_ready_[use.dst] = result_ready;
    if (use.writes_flags) flags_ready_ = issue + 1;

    if (isa::isControlTransfer(inst.op)) {
      ++branches_.branches;
      const bool correct = predictAndUpdate(pc, taken, target);
      if (!correct) {
        ++branches_.mispredicts;
        cycle_ += config_.branch_mispredict_penalty;
      }
    }
  }

  [[nodiscard]] u64 cycles() const { return cycle_; }
  [[nodiscard]] const BranchStats& branchStats() const { return branches_; }

  void reset();

 private:
  struct BtbEntry {
    bool valid = false;
    u32 tag = 0;
    u32 target = 0;
    u8 counter = 0;  // 2-bit saturating, taken if >= 2
  };

  /// Predicts direction+target for the branch at @p pc; returns true if
  /// the prediction matches (@p taken, @p target). Updates the BTB.
  bool predictAndUpdate(u32 pc, bool taken, u32 target);

  TimingConfig config_;
  u64 cycle_ = 0;
  std::array<u64, isa::kNumRegisters> reg_ready_{};
  u64 flags_ready_ = 0;
  std::vector<BtbEntry> btb_;
  BranchStats branches_;
};

}  // namespace wp::pipeline
