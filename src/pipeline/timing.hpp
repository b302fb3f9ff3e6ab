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
// so every simulated machine has its own. TimingModel is their
// composition for callers that drive one machine by hand.
//
// A scoreboard's future depends only on its cycle and on each source's
// *slack* (how far its ready time lies beyond the next issue slot), and
// every update is a max or an added constant. So two scoreboards with
// equal slacks stay a fixed number of cycles apart under equal inputs.
// StallWindow uses that to time a machine against a shared reference
// whose every fetch costs one cycle: only after a fetch stall does the
// machine step a scoreboard of its own, until the two agree again.
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

/// A scoreboard's state up to a shift of time: its cycle and, per
/// register and then for the flags, the slack max(ready - cycle - 1, 0).
/// A ready time at or below cycle + 1 can never delay an issue again,
/// since the cycle never falls, so the cycle and the slacks are all the
/// scoreboard's future depends on.
struct ScoreboardState {
  u64 cycle = 0;
  std::array<u8, isa::kNumRegisters + 1> slack{};
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

  /// This scoreboard's state. Throws SimError when a slack does not fit
  /// its byte (a D-cache miss of more than about 250 cycles).
  [[nodiscard]] ScoreboardState state() const {
    ScoreboardState s;
    s.cycle = cycle_;
    u64 widest = 0;
    for (u32 r = 0; r < isa::kNumRegisters; ++r) {
      const u64 slack = slackOf(reg_ready_[r]);
      widest |= slack;
      s.slack[r] = static_cast<u8>(slack);
    }
    const u64 flags = slackOf(flags_ready_);
    widest |= flags;
    s.slack[isa::kNumRegisters] = static_cast<u8>(flags);
    WP_ENSURE(widest <= 0xff, "scoreboard slack does not fit its byte");
    return s;
  }

  /// Becomes @p s shifted @p shift cycles later.
  void restore(const ScoreboardState& s, u64 shift) {
    cycle_ = s.cycle + shift;
    for (u32 r = 0; r < isa::kNumRegisters; ++r) {
      reg_ready_[r] = cycle_ + 1 + s.slack[r];
    }
    flags_ready_ = cycle_ + 1 + s.slack[isa::kNumRegisters];
  }

  /// True when both scoreboards have the same slacks: fed the same
  /// instructions from here on, their cycles keep their difference.
  [[nodiscard]] bool sameSlack(const Scoreboard& other) const {
    for (u32 r = 0; r < isa::kNumRegisters; ++r) {
      if (slackOf(reg_ready_[r]) != other.slackOf(other.reg_ready_[r])) {
        return false;
      }
    }
    return slackOf(flags_ready_) == other.slackOf(other.flags_ready_);
  }

 private:
  [[nodiscard]] u64 slackOf(u64 ready) const {
    return ready > cycle_ + 1 ? ready - cycle_ - 1 : 0;
  }

  TimingConfig config_;
  u64 cycle_ = 0;
  std::array<u64, isa::kNumRegisters> reg_ready_{};
  u64 flags_ready_ = 0;
};

/// One machine's timing of one process against a shared reference
/// scoreboard, which is fed the same instructions with every fetch
/// costing one cycle. While the window is closed the machine's
/// scoreboard is the reference's shifted by a fixed delta of cycles, so
/// the machine steps nothing. A fetch stall opens the window: the machine
/// restores the reference's state at the stalled batch's start, steps
/// its own scoreboard and a copy of the reference over the batch, and
/// closes the window as soon as the two have equal slacks. Stalls only
/// add cycles, so the delta never falls.
class StallWindow {
 public:
  explicit StallWindow(const TimingConfig& config)
      : own_(config), reference_(config) {}

  [[nodiscard]] bool isOpen() const { return open_; }

  /// Opens the window at a batch start where the reference was in
  /// @p reference_state.
  void open(const ScoreboardState& reference_state) {
    own_.restore(reference_state, delta_);
    reference_.restore(reference_state, 0);
    open_ = true;
  }

  /// Times one instruction of an open window: the machine's scoreboard
  /// with its own @p fetch_cycles, the reference copy with one.
  void onInstruction(const RegUse& use, u32 fetch_cycles, u32 mem_cycles,
                     bool mispredict) {
    own_.onInstruction(use, fetch_cycles, mem_cycles, mispredict);
    reference_.onInstruction(use, 1, mem_cycles, mispredict);
  }

  /// Closes an open window when the machine's scoreboard has the
  /// reference copy's slacks again, carrying their cycle difference as
  /// the new delta.
  void tryClose() {
    if (!own_.sameSlack(reference_)) return;
    delta_ = own_.cycles() - reference_.cycles();
    open_ = false;
  }

  /// The cycles the machine's scoreboard has counted, given the
  /// reference's count at the same point of the stream.
  [[nodiscard]] u64 cycles(u64 reference_cycles) const {
    return open_ ? own_.cycles() : reference_cycles + delta_;
  }

 private:
  Scoreboard own_;
  Scoreboard reference_;
  u64 delta_ = 0;
  bool open_ = false;
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

 private:
  BranchPredictor btb_;
  Scoreboard scoreboard_;
};

}  // namespace wp::pipeline
