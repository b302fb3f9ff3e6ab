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
//
// The model is two parts with different inputs. The branch predictor
// (BTB) reads only the pc, the outcome and the target, so it belongs to
// the architectural half of the retire loop, which runs once per
// instruction stream. The scoreboard also reads the fetch-path cycles,
// so every simulated machine keeps its own. TimingModel is their
// composition for callers that drive one machine by hand.
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

/// Issue class of an instruction: which completion rule the scoreboard
/// applies to it.
enum class OpClass : u8 { kOther, kMultiply, kLoad, kStore };

/// Source/destination registers of an instruction, plus flag use/def
/// and its issue class: everything the scoreboard reads.
struct RegUse {
  std::array<u8, 3> srcs{};
  u8 num_srcs = 0;
  bool has_dst = false;
  u8 dst = 0;
  bool reads_flags = false;
  bool writes_flags = false;
  OpClass op_class = OpClass::kOther;
};

[[nodiscard]] RegUse regUsesOf(const isa::Instruction& inst);

/// The branch target buffer: 2-bit counters with full-pc tags, trained
/// on every control transfer.
class BranchPredictor {
 public:
  explicit BranchPredictor(u32 entries);

  /// Predicts direction+target for the control transfer at @p pc,
  /// updates the BTB with the outcome, and counts the branch. Returns
  /// true on a mispredict.
  bool mispredicts(u32 pc, bool taken, u32 target) {
    ++stats_.branches;
    const bool correct = predictAndUpdate(pc, taken, target);
    if (!correct) ++stats_.mispredicts;
    return !correct;
  }

  [[nodiscard]] const BranchStats& stats() const { return stats_; }
  void reset();

 private:
  struct BtbEntry {
    bool valid = false;
    u32 tag = 0;
    u32 target = 0;
    u8 counter = 0;  // 2-bit saturating, taken if >= 2
  };

  /// Returns true if the prediction for the branch at @p pc matches
  /// (@p taken, @p target). Updates the BTB.
  bool predictAndUpdate(u32 pc, bool taken, u32 target);

  std::vector<BtbEntry> btb_;
  BranchStats stats_;
};

/// In-order issue over a register scoreboard: the per-machine part of
/// the timing model.
class Scoreboard {
 public:
  explicit Scoreboard(const TimingConfig& config) : config_(config) {}

  /// Advances time over one committed instruction. Runs once per
  /// committed instruction on every machine — defined inline so the
  /// retire loop can absorb it.
  /// @param use           regUsesOf(inst); the BlockCache precomputes it
  ///                      per static instruction
  /// @param fetch_cycles  cycles the fetch path reported (>= 1)
  /// @param mem_cycles    D-cache cycles for loads/stores (0 otherwise)
  /// @param mispredict    the branch predictor missed this transfer
  void onInstruction(const RegUse& use, u32 fetch_cycles, u32 mem_cycles,
                     bool mispredict) {
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
    switch (use.op_class) {
      case OpClass::kMultiply:
        result_ready = issue + config_.mul_latency;
        break;
      case OpClass::kLoad:
        // mem_cycles covers the D-cache access (1 on a hit); the
        // load-use latency covers the remaining pipeline distance.
        result_ready = issue + mem_cycles + config_.load_use_latency - 1;
        break;
      case OpClass::kStore:
        // Stores retire through the write buffer; a miss stalls the unit.
        if (mem_cycles > 1) cycle_ += mem_cycles - 1;
        break;
      case OpClass::kOther:
        break;
    }
    if (use.has_dst) reg_ready_[use.dst] = result_ready;
    if (use.writes_flags) flags_ready_ = issue + 1;

    if (mispredict) cycle_ += config_.branch_mispredict_penalty;
  }

  [[nodiscard]] u64 cycles() const { return cycle_; }
  void reset();

 private:
  TimingConfig config_;
  u64 cycle_ = 0;
  std::array<u64, isa::kNumRegisters> reg_ready_{};
  u64 flags_ready_ = 0;
};

/// The whole timing model of one machine: the branch predictor and the
/// scoreboard, fed one committed instruction at a time.
class TimingModel {
 public:
  explicit TimingModel(const TimingConfig& config);

  /// Advances time over one committed instruction.
  /// @param use           regUsesOf(inst); the BlockCache precomputes it
  ///                      per static instruction, so the hot loop skips
  ///                      the format/opcode switch
  /// @param fetch_cycles  cycles the fetch path reported (>= 1)
  /// @param mem_cycles    D-cache cycles for loads/stores (0 otherwise)
  /// @param taken         branch outcome (control transfers only)
  /// @param target        branch target (control transfers only)
  void onInstruction(const isa::Instruction& inst, const RegUse& use, u32 pc,
                     u32 fetch_cycles, u32 mem_cycles, bool taken, u32 target) {
    const bool mispredict = isa::isControlTransfer(inst.op) &&
                            btb_.mispredicts(pc, taken, target);
    scoreboard_.onInstruction(use, fetch_cycles, mem_cycles, mispredict);
  }

  [[nodiscard]] u64 cycles() const { return scoreboard_.cycles(); }
  [[nodiscard]] const BranchStats& branchStats() const { return btb_.stats(); }

  void reset();

 private:
  BranchPredictor btb_;
  Scoreboard scoreboard_;
};

}  // namespace wp::pipeline
