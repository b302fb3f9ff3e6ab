// Helpers shared by the test suites: the Table 1 I-cache geometry, a
// scoped environment override, and random reducible guest programs.
#pragma once

#include <cstdlib>
#include <string>

#include "asmkit/builder.hpp"
#include "cache/geometry.hpp"
#include "ir/module.hpp"
#include "support/rng.hpp"

namespace wp {

/// The baseline I-cache of Table 1: 32 KB, 32-way, 32-byte lines.
inline const cache::CacheGeometry kXScale{32 * 1024, 32, 32};

/// Sets an environment variable for the enclosing scope; restores the
/// previous value (or unsets) on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_old_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_old_ = false;
};

// Generates a random reducible program: a chain of "segments", each a
// small diamond/loop/call/memory pattern over a running checksum in
// r4..r6, plus a scratch buffer for load/store segments.
inline ir::Module randomProgram(u64 seed) {
  using namespace asmkit;
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

}  // namespace wp
