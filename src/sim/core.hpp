// Functional execution core for WRISC-32.
//
// The core is deliberately separate from timing: the profiler runs it
// bare (fast block counting on the training input), the retire loop in
// GuestScheduler::run — behind every Processor — wraps it with the fetch
// path, D-cache and timing model for measurement runs.
//
// Code is predecoded once from the loaded image — the guest ISA has no
// self-modifying code — while loads and stores go to the live Memory.
#pragma once

#include <optional>
#include <vector>

#include "isa/isa.hpp"
#include "mem/image.hpp"
#include "mem/memory.hpp"
#include "support/ensure.hpp"

namespace wp::sim {

struct CoreState {
  std::array<u32, isa::kNumRegisters> regs{};
  bool n = false, z = false, c = false, v = false;  // NZCV flags
  u32 pc = 0;
  bool halted = false;
};

/// Everything the wrappers need to know about one executed instruction.
struct StepInfo {
  u32 pc = 0;
  isa::Instruction inst;
  u32 next_pc = 0;
  bool control_transfer = false;
  bool taken = false;           ///< for control transfers
  bool indirect = false;        ///< jr (register target)
  std::optional<u32> mem_addr;  ///< effective address of a load/store
};

class Core {
 public:
  /// Predecodes @p image's code segment; @p memory holds data and stack.
  Core(const mem::Image& image, mem::Memory& memory);

  /// Initial state: pc at the entry point, sp at the stack top.
  [[nodiscard]] CoreState initialState() const;

  /// Executes the instruction at @p state.pc. Returns what happened.
  /// Defined inline at the bottom of this header: it runs once per
  /// simulated instruction, and keeping it visible to its loops lets
  /// them inline the dispatch switch and drop the StepInfo fields they
  /// never read (the profiler discards all of them).
  StepInfo step(CoreState& state);

  [[nodiscard]] u32 codeBase() const { return code_base_; }
  [[nodiscard]] u32 codeEnd() const {
    return code_base_ + static_cast<u32>(decoded_.size()) * 4;
  }

  /// The predecoded code segment, one entry per instruction slot from
  /// codeBase(). Read-only: the BlockCache indexes it to precompute
  /// basic-block extents.
  [[nodiscard]] const std::vector<isa::Instruction>& decoded() const {
    return decoded_;
  }

 private:
  [[nodiscard]] const isa::Instruction& fetchDecoded(u32 pc) const {
    WP_ENSURE((pc & 3u) == 0, "misaligned pc");
    WP_ENSURE(pc >= code_base_ && pc < codeEnd(), "pc outside code segment");
    return decoded_[(pc - code_base_) / 4];
  }

  mem::Memory& memory_;
  std::vector<isa::Instruction> decoded_;
  u32 code_base_;
  u32 entry_;
};

inline StepInfo Core::step(CoreState& s) {
  WP_ENSURE(!s.halted, "step on a halted core");
  const isa::Instruction& inst = fetchDecoded(s.pc);
  StepInfo info;
  info.pc = s.pc;
  info.inst = inst;

  auto& r = s.regs;
  const u32 seq_pc = s.pc + 4;
  u32 next_pc = seq_pc;

  const auto setNZ = [&s](u32 value) {
    s.n = (value >> 31) != 0;
    s.z = value == 0;
  };
  const auto compare = [&](u32 a, u32 b) {
    const u32 res = a - b;
    setNZ(res);
    s.c = a >= b;  // no borrow
    s.v = (((a ^ b) & (a ^ res)) >> 31) != 0;
  };
  const auto branchTarget = [&]() {
    return static_cast<u32>(static_cast<i64>(seq_pc) +
                            static_cast<i64>(inst.imm) * 4);
  };
  const auto condBranch = [&](bool cond) {
    info.control_transfer = true;
    info.taken = cond;
    if (cond) next_pc = branchTarget();
  };

  switch (inst.op) {
    case isa::Opcode::kAdd: r[inst.rd] = r[inst.rn] + r[inst.rm]; break;
    case isa::Opcode::kSub: r[inst.rd] = r[inst.rn] - r[inst.rm]; break;
    case isa::Opcode::kRsb: r[inst.rd] = r[inst.rm] - r[inst.rn]; break;
    case isa::Opcode::kAnd: r[inst.rd] = r[inst.rn] & r[inst.rm]; break;
    case isa::Opcode::kOrr: r[inst.rd] = r[inst.rn] | r[inst.rm]; break;
    case isa::Opcode::kEor: r[inst.rd] = r[inst.rn] ^ r[inst.rm]; break;
    case isa::Opcode::kLsl: r[inst.rd] = r[inst.rn] << (r[inst.rm] & 31); break;
    case isa::Opcode::kLsr: r[inst.rd] = r[inst.rn] >> (r[inst.rm] & 31); break;
    case isa::Opcode::kAsr:
      r[inst.rd] = static_cast<u32>(static_cast<i32>(r[inst.rn]) >>
                                    (r[inst.rm] & 31));
      break;
    case isa::Opcode::kMul: r[inst.rd] = r[inst.rn] * r[inst.rm]; break;
    case isa::Opcode::kMla: r[inst.rd] = r[inst.rd] + r[inst.rn] * r[inst.rm]; break;
    case isa::Opcode::kMov: r[inst.rd] = r[inst.rm]; break;
    case isa::Opcode::kMvn: r[inst.rd] = ~r[inst.rm]; break;
    case isa::Opcode::kCmp: compare(r[inst.rn], r[inst.rm]); break;
    case isa::Opcode::kSlt:
      r[inst.rd] =
          static_cast<i32>(r[inst.rn]) < static_cast<i32>(r[inst.rm]) ? 1 : 0;
      break;
    case isa::Opcode::kSltu: r[inst.rd] = r[inst.rn] < r[inst.rm] ? 1 : 0; break;

    case isa::Opcode::kAddi:
      r[inst.rd] = r[inst.rn] + static_cast<u32>(inst.imm);
      break;
    case isa::Opcode::kSubi:
      r[inst.rd] = r[inst.rn] - static_cast<u32>(inst.imm);
      break;
    case isa::Opcode::kAndi:
      r[inst.rd] = r[inst.rn] & (static_cast<u32>(inst.imm) & 0xffffu);
      break;
    case isa::Opcode::kOrri:
      r[inst.rd] = r[inst.rn] | (static_cast<u32>(inst.imm) & 0xffffu);
      break;
    case isa::Opcode::kEori:
      r[inst.rd] = r[inst.rn] ^ (static_cast<u32>(inst.imm) & 0xffffu);
      break;
    case isa::Opcode::kLsli: r[inst.rd] = r[inst.rn] << (inst.imm & 31); break;
    case isa::Opcode::kLsri: r[inst.rd] = r[inst.rn] >> (inst.imm & 31); break;
    case isa::Opcode::kAsri:
      r[inst.rd] =
          static_cast<u32>(static_cast<i32>(r[inst.rn]) >> (inst.imm & 31));
      break;
    case isa::Opcode::kMuli:
      r[inst.rd] = r[inst.rn] * static_cast<u32>(inst.imm);
      break;
    case isa::Opcode::kCmpi: compare(r[inst.rn], static_cast<u32>(inst.imm)); break;
    case isa::Opcode::kMovi: r[inst.rd] = static_cast<u32>(inst.imm); break;
    case isa::Opcode::kMovhi:
      r[inst.rd] = (r[inst.rd] & 0xffffu) |
                   ((static_cast<u32>(inst.imm) & 0xffffu) << 16);
      break;

    case isa::Opcode::kLdr: {
      const u32 addr = r[inst.rn] + static_cast<u32>(inst.imm);
      info.mem_addr = addr;
      r[inst.rd] = memory_.load32(addr);
      break;
    }
    case isa::Opcode::kStr: {
      const u32 addr = r[inst.rn] + static_cast<u32>(inst.imm);
      info.mem_addr = addr;
      memory_.store32(addr, r[inst.rd]);
      break;
    }
    case isa::Opcode::kLdrb: {
      const u32 addr = r[inst.rn] + static_cast<u32>(inst.imm);
      info.mem_addr = addr;
      r[inst.rd] = memory_.load8(addr);
      break;
    }
    case isa::Opcode::kStrb: {
      const u32 addr = r[inst.rn] + static_cast<u32>(inst.imm);
      info.mem_addr = addr;
      memory_.store8(addr, static_cast<u8>(r[inst.rd]));
      break;
    }
    case isa::Opcode::kLdrx: {
      const u32 addr = r[inst.rn] + r[inst.rm];
      info.mem_addr = addr;
      r[inst.rd] = memory_.load32(addr);
      break;
    }
    case isa::Opcode::kStrx: {
      const u32 addr = r[inst.rn] + r[inst.rm];
      info.mem_addr = addr;
      memory_.store32(addr, r[inst.rd]);
      break;
    }
    case isa::Opcode::kLdrbx: {
      const u32 addr = r[inst.rn] + r[inst.rm];
      info.mem_addr = addr;
      r[inst.rd] = memory_.load8(addr);
      break;
    }
    case isa::Opcode::kStrbx: {
      const u32 addr = r[inst.rn] + r[inst.rm];
      info.mem_addr = addr;
      memory_.store8(addr, static_cast<u8>(r[inst.rd]));
      break;
    }

    case isa::Opcode::kB:
      info.control_transfer = true;
      info.taken = true;
      next_pc = branchTarget();
      break;
    case isa::Opcode::kBeq: condBranch(s.z); break;
    case isa::Opcode::kBne: condBranch(!s.z); break;
    case isa::Opcode::kBlt: condBranch(s.n != s.v); break;
    case isa::Opcode::kBge: condBranch(s.n == s.v); break;
    case isa::Opcode::kBgt: condBranch(!s.z && s.n == s.v); break;
    case isa::Opcode::kBle: condBranch(s.z || s.n != s.v); break;
    case isa::Opcode::kBltu: condBranch(!s.c); break;
    case isa::Opcode::kBgeu: condBranch(s.c); break;
    case isa::Opcode::kBl:
      info.control_transfer = true;
      info.taken = true;
      r[isa::kLinkReg] = seq_pc;
      next_pc = branchTarget();
      break;
    case isa::Opcode::kJr:
      info.control_transfer = true;
      info.taken = true;
      info.indirect = true;
      next_pc = r[inst.rn];
      break;

    case isa::Opcode::kNop:
      break;
    case isa::Opcode::kHalt:
      s.halted = true;
      break;
    case isa::Opcode::kOpcodeCount:
      WP_UNREACHABLE("invalid opcode");
  }

  info.next_pc = next_pc;
  s.pc = next_pc;
  return info;
}

}  // namespace wp::sim
