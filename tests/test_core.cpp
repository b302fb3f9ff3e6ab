// Functional-core semantics: every instruction class exercised through
// small asmkit programs, including flags, calls, stack and memory ops.
#include <gtest/gtest.h>

#include <functional>

#include "asmkit/builder.hpp"
#include "layout/strategy.hpp"
#include "sim/core.hpp"

namespace wp {
namespace {

using namespace asmkit;

// Builds main() from `body`, runs it, returns the "out" words.
std::vector<u32> runProgram(
    const std::function<void(ModuleBuilder&, FunctionBuilder&)>& body,
    std::size_t out_words = 4) {
  ModuleBuilder mb;
  mb.bss("out", static_cast<u32>(out_words * 4));
  auto& f = mb.func("main");
  f.prologue({r4, r5, r6, r7});
  body(mb, f);
  f.epilogue({r4, r5, r6, r7});
  const ir::Module module = mb.build();
  const mem::Image image =
      layout::layoutImage(module, "original");
  mem::Memory memory;
  image.loadInto(memory);
  sim::Core core(image, memory);
  sim::CoreState st = core.initialState();
  u64 steps = 0;
  while (!st.halted) {
    EXPECT_LT(steps++, 1'000'000u);
    core.step(st);
  }
  std::vector<u32> out(out_words);
  for (std::size_t i = 0; i < out_words; ++i) {
    out[i] = memory.load32(mem::kDataBase + static_cast<u32>(i * 4));
  }
  return out;
}

void storeOut(FunctionBuilder& f, Reg value, i32 slot) {
  f.la(r12, "out", slot * 4);
  f.str(value, r12);
}

TEST(CoreAlu, AddSubRsb) {
  const auto out = runProgram([](ModuleBuilder&, FunctionBuilder& f) {
    f.movi(r0, 7);
    f.movi(r1, 3);
    f.add(r2, r0, r1);
    storeOut(f, r2, 0);
    f.sub(r2, r0, r1);
    storeOut(f, r2, 1);
    f.rsb(r2, r0, r1);  // r1 - r0
    storeOut(f, r2, 2);
  });
  EXPECT_EQ(out[0], 10u);
  EXPECT_EQ(out[1], 4u);
  EXPECT_EQ(out[2], static_cast<u32>(-4));
}

TEST(CoreAlu, Logic) {
  const auto out = runProgram([](ModuleBuilder&, FunctionBuilder& f) {
    f.movi32(r0, 0xff00ff00u);
    f.movi32(r1, 0x0ff00ff0u);
    f.and_(r2, r0, r1);
    storeOut(f, r2, 0);
    f.orr(r2, r0, r1);
    storeOut(f, r2, 1);
    f.eor(r2, r0, r1);
    storeOut(f, r2, 2);
    f.mvn(r2, r0);
    storeOut(f, r2, 3);
  });
  EXPECT_EQ(out[0], 0x0f000f00u);
  EXPECT_EQ(out[1], 0xfff0fff0u);
  EXPECT_EQ(out[2], 0xf0f0f0f0u);
  EXPECT_EQ(out[3], 0x00ff00ffu);
}

TEST(CoreAlu, Shifts) {
  const auto out = runProgram([](ModuleBuilder&, FunctionBuilder& f) {
    f.movi32(r0, 0x80000001u);
    f.lsli(r1, r0, 1);
    storeOut(f, r1, 0);
    f.lsri(r1, r0, 1);
    storeOut(f, r1, 1);
    f.asri(r1, r0, 1);
    storeOut(f, r1, 2);
    f.movi(r2, 4);
    f.lsl(r1, r0, r2);
    storeOut(f, r1, 3);
  });
  EXPECT_EQ(out[0], 0x00000002u);
  EXPECT_EQ(out[1], 0x40000000u);
  EXPECT_EQ(out[2], 0xC0000000u);
  EXPECT_EQ(out[3], 0x00000010u);
}

TEST(CoreAlu, MultiplyAndMla) {
  const auto out = runProgram([](ModuleBuilder&, FunctionBuilder& f) {
    f.movi(r0, -3);
    f.movi(r1, 7);
    f.mul(r2, r0, r1);
    storeOut(f, r2, 0);
    f.movi(r2, 100);
    f.mla(r2, r0, r1);  // 100 + (-21)
    storeOut(f, r2, 1);
    f.muli(r2, r1, -2);
    storeOut(f, r2, 2);
  });
  EXPECT_EQ(out[0], static_cast<u32>(-21));
  EXPECT_EQ(out[1], 79u);
  EXPECT_EQ(out[2], static_cast<u32>(-14));
}

TEST(CoreAlu, SltAndSltu) {
  const auto out = runProgram([](ModuleBuilder&, FunctionBuilder& f) {
    f.movi(r0, -1);
    f.movi(r1, 1);
    f.slt(r2, r0, r1);   // signed: -1 < 1
    storeOut(f, r2, 0);
    f.sltu(r2, r0, r1);  // unsigned: 0xffffffff < 1 is false
    storeOut(f, r2, 1);
  });
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 0u);
}

TEST(CoreAlu, Movi32AndMovhi) {
  const auto out = runProgram([](ModuleBuilder&, FunctionBuilder& f) {
    f.movi32(r0, 0xdeadbeefu);
    storeOut(f, r0, 0);
    f.movi32(r1, 0x00001234u);
    storeOut(f, r1, 1);
    f.movi32(r2, 0xffff8000u);
    storeOut(f, r2, 2);
  });
  EXPECT_EQ(out[0], 0xdeadbeefu);
  EXPECT_EQ(out[1], 0x1234u);
  EXPECT_EQ(out[2], 0xffff8000u);
}

struct BranchCase {
  const char* name;
  Cond cond;
  i32 a, b;
  bool expect_taken;
};

// gtest's default printer dumps the struct's bytes, pointer included,
// into the listed test name; print the case name so the name is stable.
void PrintTo(const BranchCase& c, std::ostream* os) { *os << c.name; }

class CoreBranch : public ::testing::TestWithParam<BranchCase> {};

TEST_P(CoreBranch, Semantics) {
  const BranchCase& c = GetParam();
  const auto out = runProgram([&c](ModuleBuilder&, FunctionBuilder& f) {
    const auto taken = f.label();
    const auto done = f.label();
    f.movi32(r0, static_cast<u32>(c.a));
    f.movi32(r1, static_cast<u32>(c.b));
    f.movi(r2, 0);
    f.cmpBr(r0, r1, c.cond, taken);
    f.jmp(done);
    f.bind(taken);
    f.movi(r2, 1);
    f.bind(done);
    storeOut(f, r2, 0);
  });
  EXPECT_EQ(out[0], c.expect_taken ? 1u : 0u) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Conditions, CoreBranch,
    ::testing::Values(
        BranchCase{"eq_taken", Cond::kEq, 5, 5, true},
        BranchCase{"eq_not", Cond::kEq, 5, 6, false},
        BranchCase{"ne_taken", Cond::kNe, 5, 6, true},
        BranchCase{"lt_signed", Cond::kLt, -1, 0, true},
        BranchCase{"lt_not", Cond::kLt, 1, 0, false},
        BranchCase{"ge_eq", Cond::kGe, 4, 4, true},
        BranchCase{"gt_not_eq", Cond::kGt, 4, 4, false},
        BranchCase{"gt_taken", Cond::kGt, 5, 4, true},
        BranchCase{"le_taken", Cond::kLe, -5, -5, true},
        BranchCase{"ltu_wraps", Cond::kLtu, 1, -1, true},
        BranchCase{"ltu_not", Cond::kLtu, -1, 1, false},
        BranchCase{"geu_taken", Cond::kGeu, -1, 1, true},
        BranchCase{"overflow_lt", Cond::kLt, i32(0x80000000), 1, true}),
    [](const ::testing::TestParamInfo<BranchCase>& info) {
      return info.param.name;
    });

TEST(CoreMemory, WordAndByteAccess) {
  const auto out = runProgram([](ModuleBuilder& mb, FunctionBuilder& f) {
    mb.bss("buf", 64);
    f.la(r4, "buf");
    f.movi32(r0, 0xa1b2c3d4u);
    f.str(r0, r4, 8);
    f.ldr(r1, r4, 8);
    storeOut(f, r1, 0);
    f.ldrb(r1, r4, 8);   // low byte, little-endian
    storeOut(f, r1, 1);
    f.movi(r0, 0x7f);
    f.strb(r0, r4, 11);  // replaces the top byte
    f.ldr(r1, r4, 8);
    storeOut(f, r1, 2);
    // Indexed forms.
    f.movi(r2, 8);
    f.ldrx(r1, r4, r2);
    storeOut(f, r1, 3);
  });
  EXPECT_EQ(out[0], 0xa1b2c3d4u);
  EXPECT_EQ(out[1], 0xd4u);
  EXPECT_EQ(out[2], 0x7fb2c3d4u);
  EXPECT_EQ(out[3], 0x7fb2c3d4u);
}

TEST(CoreControl, CallAndReturn) {
  const auto out = runProgram([](ModuleBuilder& mb, FunctionBuilder& f) {
    auto& g = mb.func("double_it");
    g.add(r0, r0, r0);
    g.ret();
    f.movi(r0, 21);
    f.call("double_it");
    storeOut(f, r0, 0);
  });
  EXPECT_EQ(out[0], 42u);
}

TEST(CoreControl, NestedCallsPreserveLink) {
  const auto out = runProgram([](ModuleBuilder& mb, FunctionBuilder& f) {
    auto& inner = mb.func("inner");
    inner.addi(r0, r0, 1);
    inner.ret();
    auto& outer = mb.func("outer");
    outer.prologue();
    outer.call("inner");
    outer.call("inner");
    outer.epilogue();
    f.movi(r0, 0);
    f.call("outer");
    storeOut(f, r0, 0);
  });
  EXPECT_EQ(out[0], 2u);
}

TEST(CoreControl, LoopSumsCorrectly) {
  const auto out = runProgram([](ModuleBuilder&, FunctionBuilder& f) {
    const auto loop = f.label();
    f.movi(r0, 0);   // sum
    f.movi(r1, 1);   // i
    f.bind(loop);
    f.add(r0, r0, r1);
    f.addi(r1, r1, 1);
    f.cmpiBr(r1, 100, Cond::kLe, loop);
    storeOut(f, r0, 0);
  });
  EXPECT_EQ(out[0], 5050u);
}

TEST(CoreControl, PushPopRoundTrip) {
  const auto out = runProgram([](ModuleBuilder&, FunctionBuilder& f) {
    f.movi(r4, 111);
    f.movi(r5, 222);
    f.push({r4, r5});
    f.movi(r4, 0);
    f.movi(r5, 0);
    f.pop({r4, r5});
    storeOut(f, r4, 0);
    storeOut(f, r5, 1);
  });
  EXPECT_EQ(out[0], 111u);
  EXPECT_EQ(out[1], 222u);
}

TEST(CoreErrors, PcOutsideCodeThrows) {
  ModuleBuilder mb;
  auto& f = mb.func("main");
  f.movi32(r0, 0x5000);
  f.jr(r0);  // jump into the void
  const ir::Module module = mb.build();
  const mem::Image image =
      layout::layoutImage(module, "original");
  mem::Memory memory;
  image.loadInto(memory);
  sim::Core core(image, memory);
  sim::CoreState st = core.initialState();
  EXPECT_THROW(
      {
        for (int i = 0; i < 100 && !st.halted; ++i) core.step(st);
      },
      SimError);
}

}  // namespace
}  // namespace wp
