// Decode-once basic-block index for the retire loop
// (GuestScheduler::run).
//
// Built in one backwards pass over a Core's predecoded code segment,
// the cache answers "how many instructions can be dispatched as one
// straight-line batch starting at pc?". A batch ends at the first
// control transfer or halt (execution may leave the line) and at cache
// line boundaries (so the fetch path is consulted exactly once per line
// entered — FetchPath::fetchLine covers the whole batch). Alongside the
// extents it precomputes each instruction's register-use decode, so the
// hot loop skips the per-instruction regUsesOf() switch.
#pragma once

#include <vector>

#include "pipeline/timing.hpp"
#include "sim/core.hpp"

namespace wp::sim {

class BlockCache {
 public:
  /// Indexes @p core's decoded code for an I-cache line size of
  /// @p line_bytes (a power of two, at least one instruction).
  BlockCache(const Core& core, u32 line_bytes);

  /// Instructions dispatchable as one batch starting at @p pc: from pc
  /// straight-line to (and including) the first control transfer or
  /// halt, without leaving pc's cache line. Out-of-range or misaligned
  /// pcs return 1 so the loop's fetch/step raise exactly the faults a
  /// per-instruction fetch would, in the same order.
  [[nodiscard]] u32 blockLenAt(u32 pc) const {
    if (pc < code_base_ || pc >= code_end_ || (pc & 3u) != 0) return 1;
    return len_[(pc - code_base_) / 4];
  }

  /// Precomputed regUsesOf() for the instruction at @p pc, which must
  /// be a valid slot (the core's step() has already validated it).
  [[nodiscard]] const pipeline::RegUse& regUseAt(u32 pc) const {
    return reg_use_[(pc - code_base_) / 4];
  }

 private:
  u32 code_base_;
  u32 code_end_;
  std::vector<u32> len_;
  std::vector<pipeline::RegUse> reg_use_;
};

}  // namespace wp::sim
