#include "pipeline/timing.hpp"

#include <algorithm>

#include "support/ensure.hpp"

namespace wp::pipeline {

using isa::Format;
using isa::Instruction;
using isa::Opcode;

RegUse regUsesOf(const Instruction& inst) {
  RegUse u;
  if (isa::isMultiply(inst.op)) {
    u.op_class = OpClass::kMultiply;
  } else if (isa::isLoad(inst.op)) {
    u.op_class = OpClass::kLoad;
  } else if (isa::isStore(inst.op)) {
    u.op_class = OpClass::kStore;
  }
  const auto addSrc = [&u](u8 r) { u.srcs[u.num_srcs++] = r; };
  switch (isa::formatOf(inst.op)) {
    case Format::kRType:
      switch (inst.op) {
        case Opcode::kMov:
        case Opcode::kMvn:
          addSrc(inst.rm);
          u.has_dst = true;
          u.dst = inst.rd;
          break;
        case Opcode::kCmp:
          addSrc(inst.rn);
          addSrc(inst.rm);
          u.writes_flags = true;
          break;
        case Opcode::kMla:
          addSrc(inst.rd);  // accumulator
          addSrc(inst.rn);
          addSrc(inst.rm);
          u.has_dst = true;
          u.dst = inst.rd;
          break;
        case Opcode::kLdrx:
        case Opcode::kLdrbx:
          addSrc(inst.rn);
          addSrc(inst.rm);
          u.has_dst = true;
          u.dst = inst.rd;
          break;
        case Opcode::kStrx:
        case Opcode::kStrbx:
          addSrc(inst.rd);  // store data
          addSrc(inst.rn);
          addSrc(inst.rm);
          break;
        default:
          addSrc(inst.rn);
          addSrc(inst.rm);
          u.has_dst = true;
          u.dst = inst.rd;
          break;
      }
      break;
    case Format::kIType:
      switch (inst.op) {
        case Opcode::kCmpi:
          addSrc(inst.rn);
          u.writes_flags = true;
          break;
        case Opcode::kMovi:
          u.has_dst = true;
          u.dst = inst.rd;
          break;
        case Opcode::kMovhi:
          addSrc(inst.rd);
          u.has_dst = true;
          u.dst = inst.rd;
          break;
        case Opcode::kLdr:
        case Opcode::kLdrb:
          addSrc(inst.rn);
          u.has_dst = true;
          u.dst = inst.rd;
          break;
        case Opcode::kStr:
        case Opcode::kStrb:
          addSrc(inst.rd);
          addSrc(inst.rn);
          break;
        default:
          addSrc(inst.rn);
          u.has_dst = true;
          u.dst = inst.rd;
          break;
      }
      break;
    case Format::kBType:
      if (isa::isConditionalBranch(inst.op)) u.reads_flags = true;
      if (inst.op == Opcode::kBl) {
        u.has_dst = true;
        u.dst = isa::kLinkReg;
      }
      break;
    case Format::kJType:
      addSrc(inst.rn);
      break;
    case Format::kNone:
      break;
  }
  return u;
}

BranchPredictor::BranchPredictor(u32 entries) : btb_(entries) {
  WP_ENSURE(isPow2(entries), "BTB entries must be a power of two");
}

bool BranchPredictor::predictAndUpdate(u32 pc, bool taken, u32 target) {
  const u32 index = (pc >> 2) & (static_cast<u32>(btb_.size()) - 1);
  BtbEntry& e = btb_[index];
  const bool entry_matches = e.valid && e.tag == pc;
  const bool predicted_taken = entry_matches && e.counter >= 2;
  const u32 predicted_target = entry_matches ? e.target : 0;

  const bool correct =
      predicted_taken == taken && (!taken || predicted_target == target);

  // Update: (re)allocate on taken branches, train the counter.
  if (!entry_matches) {
    if (taken) {
      e.valid = true;
      e.tag = pc;
      e.target = target;
      e.counter = 2;
    }
  } else {
    if (taken) {
      e.counter = static_cast<u8>(std::min<u32>(e.counter + 1, 3));
      e.target = target;
    } else {
      e.counter = static_cast<u8>(e.counter > 0 ? e.counter - 1 : 0);
    }
  }
  return correct;
}

TimingModel::TimingModel(const TimingConfig& config)
    : btb_(config.btb_entries), scoreboard_(config) {}

}  // namespace wp::pipeline
