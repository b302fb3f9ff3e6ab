// Whole-processor tests: fetch/execute integration, cache statistics on
// controlled programs, timing of misses, energy pricing plumbing,
// batched-vs-per-instruction equivalence and the watchdog poll.
#include <gtest/gtest.h>

#include "asmkit/builder.hpp"
#include "layout/strategy.hpp"
#include "sim/processor.hpp"
#include "sim/scheduler.hpp"

namespace wp {
namespace {

using namespace asmkit;

// A program whose behaviour is easy to count: a loop of `iters`
// iterations touching `array_bytes` of data.
ir::Module loopProgram(i32 iters, i32 stride_elems) {
  ModuleBuilder mb;
  mb.bss("array", 64 * 1024);
  mb.bss("out", 4);
  auto& f = mb.func("main");
  f.prologue({r4, r5, r6});
  f.la(r4, "array");
  f.movi(r5, 0);           // index (bytes)
  f.movi32(r6, iters);
  const auto loop = f.label();
  f.bind(loop);
  f.ldrx(r0, r4, r5);
  f.addi(r0, r0, 1);
  f.strx(r0, r4, r5);
  f.addi(r5, r5, stride_elems * 4);
  f.andi(r5, r5, 0xFFFC);  // wrap within 64 KB
  f.subi(r6, r6, 1);
  f.cmpiBr(r6, 0, Cond::kNe, loop);
  f.la(r0, "out");
  f.str(r6, r0);
  f.epilogue({r4, r5, r6});
  return mb.build();
}

/// Observes nothing. Attaching it makes the batched line fetch inexact,
/// so the retire loop fetches one instruction at a time — the
/// per-instruction reference the batched runs are checked against.
class NoOpHook : public cache::FetchFaultHook {
 public:
  void onFetch(cache::FetchPath&) override {}
};

/// Runs @p m on a fresh Processor; @p per_instruction attaches a
/// NoOpHook first.
sim::RunStats runProgram(const ir::Module& m, const sim::MachineConfig& cfg,
                         bool per_instruction = false) {
  const mem::Image img = layout::layoutImage(m, "original");
  mem::Memory memory;
  img.loadInto(memory);
  sim::Processor proc(cfg, img, memory);
  NoOpHook hook;
  if (per_instruction) proc.fetchPath().attachFaultHook(&hook);
  return proc.run();
}

const char* batchingName(bool per_instruction) {
  return per_instruction ? "per-instruction" : "batched";
}

TEST(Processor, InstructionCountMatchesProgram) {
  const ir::Module m = loopProgram(1000, 1);
  const sim::RunStats s = runProgram(m, sim::baselineMachine());
  // 8 loop instructions x 1000 (cmpiBr is cmp + branch) + prologue,
  // epilogue, setup and _start.
  EXPECT_GT(s.instructions, 8000u);
  EXPECT_LT(s.instructions, 8100u);
  EXPECT_EQ(s.fetch.fetches, s.instructions);
}

TEST(Processor, TinyLoopHitsInICache) {
  const ir::Module m = loopProgram(5000, 1);
  const sim::RunStats s = runProgram(m, sim::baselineMachine());
  const double hit_rate = static_cast<double>(s.icache.hits) /
                          static_cast<double>(s.icache.accesses);
  EXPECT_GT(hit_rate, 0.999);
}

TEST(Processor, StridedDataMissesInDCache) {
  // Stride of one cache line over 64 KB wraps through 2048 lines with a
  // 32 KB D-cache: every access misses in steady state.
  const ir::Module m = loopProgram(4000, 8);
  const sim::RunStats s = runProgram(m, sim::baselineMachine());
  const double miss_rate = static_cast<double>(s.dcache.misses) /
                           static_cast<double>(s.dcache.accesses);
  EXPECT_GT(miss_rate, 0.45);  // ld + st pairs: second access hits
  EXPECT_GT(s.dcache.writebacks, 1000u);
  EXPECT_GT(s.memLineTransfers(), 2000u);
}

TEST(Processor, MissesCostCycles) {
  const ir::Module seq = loopProgram(4000, 1);
  const ir::Module strided = loopProgram(4000, 8);
  const sim::RunStats fast = runProgram(seq, sim::baselineMachine());
  const sim::RunStats slow = runProgram(strided, sim::baselineMachine());
  const double fast_cpi = static_cast<double>(fast.cycles) /
                          static_cast<double>(fast.instructions);
  const double slow_cpi = static_cast<double>(slow.cycles) /
                          static_cast<double>(slow.instructions);
  EXPECT_GT(slow_cpi, 2.0 * fast_cpi);
}

TEST(Processor, RunawayGuestIsCaught) {
  ModuleBuilder mb;
  auto& f = mb.func("main");
  const auto loop = f.label();
  f.bind(loop);
  f.jmp(loop);
  const ir::Module m = mb.build();
  sim::MachineConfig cfg = sim::baselineMachine();
  cfg.max_instructions = 10000;
  const mem::Image img = layout::layoutImage(m, "original");
  mem::Memory memory;
  img.loadInto(memory);
  sim::Processor proc(cfg, img, memory);
  EXPECT_THROW(proc.run(), SimError);
}

TEST(Processor, RunIsCallOnce) {
  const ir::Module m = loopProgram(100, 1);
  const mem::Image img = layout::layoutImage(m, "original");
  mem::Memory memory;
  img.loadInto(memory);
  sim::Processor proc(sim::baselineMachine(), img, memory);
  EXPECT_GT(proc.run().instructions, 0u);
  // A second run would replay the guest over its own mutated memory on
  // warm caches and report cumulative counters.
  EXPECT_THROW(proc.run(), SimError);
}

TEST(Processor, PricingUsesAllComponents) {
  const ir::Module m = loopProgram(2000, 8);
  const sim::MachineConfig cfg = sim::baselineMachine();
  const sim::RunStats s = runProgram(m, cfg);
  const energy::EnergyModel model;
  const energy::RunEnergy e = sim::Processor::price(model, cfg, s);
  EXPECT_GT(e.icache.total(), 0.0);
  EXPECT_GT(e.dcache.total(), 0.0);
  EXPECT_GT(e.itlb, 0.0);
  EXPECT_GT(e.core, 0.0);
  EXPECT_GT(e.memory, 0.0);
  EXPECT_EQ(e.hint, 0.0);  // baseline has no way-hint bit
  const sim::MachineConfig wp_cfg =
      sim::baselineMachine(cache::Scheme::kWayPlacement, 1024);
  const energy::RunEnergy ewp = sim::Processor::price(model, wp_cfg, s);
  EXPECT_GT(ewp.hint, 0.0);
}

TEST(Processor, BranchStatsPopulated) {
  const ir::Module m = loopProgram(3000, 1);
  const sim::RunStats s = runProgram(m, sim::baselineMachine());
  EXPECT_GT(s.branches.branches, 3000u);
  // A steady loop branch predicts almost perfectly.
  EXPECT_LT(s.branches.mispredicts * 50, s.branches.branches);
}

// Every field of two RunStats, element by element: the block engine's
// contract is that no counter anywhere moves differently.
void expectSameRunStats(const sim::RunStats& a, const sim::RunStats& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.retired_pc_hash, b.retired_pc_hash);
  EXPECT_EQ(a.dataflow_hash, b.dataflow_hash);
  const auto expectSameCache = [](const cache::CacheStats& x,
                                  const cache::CacheStats& y) {
    EXPECT_EQ(x.accesses, y.accesses);
    EXPECT_EQ(x.hits, y.hits);
    EXPECT_EQ(x.misses, y.misses);
    EXPECT_EQ(x.tag_compares, y.tag_compares);
    EXPECT_EQ(x.matchline_precharges, y.matchline_precharges);
    EXPECT_EQ(x.full_lookups, y.full_lookups);
    EXPECT_EQ(x.single_way_lookups, y.single_way_lookups);
    EXPECT_EQ(x.partial_lookups, y.partial_lookups);
    EXPECT_EQ(x.no_tag_lookups, y.no_tag_lookups);
    EXPECT_EQ(x.data_word_reads, y.data_word_reads);
    EXPECT_EQ(x.data_word_writes, y.data_word_writes);
    EXPECT_EQ(x.line_fills, y.line_fills);
    EXPECT_EQ(x.writebacks, y.writebacks);
    EXPECT_EQ(x.link_reads, y.link_reads);
    EXPECT_EQ(x.link_writes, y.link_writes);
    EXPECT_EQ(x.link_invalidations, y.link_invalidations);
    EXPECT_EQ(x.linked_accesses, y.linked_accesses);
    EXPECT_EQ(x.duplicate_invalidations, y.duplicate_invalidations);
  };
  expectSameCache(a.icache, b.icache);
  expectSameCache(a.dcache, b.dcache);
  EXPECT_EQ(a.itlb.accesses, b.itlb.accesses);
  EXPECT_EQ(a.itlb.misses, b.itlb.misses);
  EXPECT_EQ(a.itlb.walks, b.itlb.walks);
  EXPECT_EQ(a.fetch.fetches, b.fetch.fetches);
  EXPECT_EQ(a.fetch.sameline_skips, b.fetch.sameline_skips);
  EXPECT_EQ(a.fetch.wp_single_way, b.fetch.wp_single_way);
  EXPECT_EQ(a.fetch.hint_correct, b.fetch.hint_correct);
  EXPECT_EQ(a.fetch.hint_miss_lost_saving, b.fetch.hint_miss_lost_saving);
  EXPECT_EQ(a.fetch.hint_miss_second_access, b.fetch.hint_miss_second_access);
  EXPECT_EQ(a.fetch.waypred_correct, b.fetch.waypred_correct);
  EXPECT_EQ(a.fetch.waypred_mispredict, b.fetch.waypred_mispredict);
  EXPECT_EQ(a.fetch.extra_cycles, b.fetch.extra_cycles);
  EXPECT_EQ(a.fetch.link_faults_dropped, b.fetch.link_faults_dropped);
  EXPECT_EQ(a.branches.branches, b.branches.branches);
  EXPECT_EQ(a.branches.mispredicts, b.branches.mispredicts);
  EXPECT_EQ(a.squashed_probes, b.squashed_probes);
  EXPECT_EQ(a.link_flash_clears, b.link_flash_clears);
  EXPECT_EQ(a.icache_data_area_factor, b.icache_data_area_factor);
  EXPECT_EQ(a.drowsy.wakeups, b.drowsy.wakeups);
  EXPECT_EQ(a.drowsy.awake_line_ticks, b.drowsy.awake_line_ticks);
  EXPECT_EQ(a.drowsy.drowsy_line_ticks, b.drowsy.drowsy_line_ticks);
  EXPECT_EQ(a.drowsy.ticks, b.drowsy.ticks);
  EXPECT_EQ(a.icache_lines, b.icache_lines);
}

// Batching is a host optimisation: a batched run must match the
// per-instruction reference (a NoOpHook attached) counter for counter.

TEST(Engine, BlockMatchesInterpreterAcrossSchemes) {
  const ir::Module m = loopProgram(2000, 8);  // D-cache misses included
  const struct {
    cache::Scheme scheme;
    u32 wp_area;
  } cases[] = {
      {cache::Scheme::kBaseline, 0},
      {cache::Scheme::kWayPlacement, 4096},
      {cache::Scheme::kWayMemoization, 0},
      {cache::Scheme::kWayPrediction, 0},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(cache::schemeName(c.scheme));
    const sim::MachineConfig cfg = sim::baselineMachine(c.scheme, c.wp_area);
    expectSameRunStats(runProgram(m, cfg, /*per_instruction=*/true),
                       runProgram(m, cfg));
  }
}

TEST(Engine, BlockMatchesInterpreterWithoutIntralineSkip) {
  const ir::Module m = loopProgram(1500, 1);
  for (const cache::Scheme scheme :
       {cache::Scheme::kWayPlacement, cache::Scheme::kWayMemoization,
        cache::Scheme::kWayPrediction}) {
    SCOPED_TRACE(cache::schemeName(scheme));
    const u32 area = scheme == cache::Scheme::kWayPlacement ? 4096u : 0u;
    sim::MachineConfig cfg = sim::baselineMachine(scheme, area);
    cfg.fetch.intraline_skip = false;
    expectSameRunStats(runProgram(m, cfg, /*per_instruction=*/true),
                       runProgram(m, cfg));
  }
}

TEST(Engine, DrowsyRunsFallBackToInterpreterAndMatch) {
  // drowsy_window != 0 makes the batched line fetch inexact, so both
  // runs fetch one instruction at a time — results are then trivially
  // identical, which is exactly what this asserts.
  const ir::Module m = loopProgram(1000, 1);
  sim::MachineConfig cfg =
      sim::baselineMachine(cache::Scheme::kWayPlacement, 4096);
  cfg.fetch.drowsy_window = 64;
  const sim::RunStats a = runProgram(m, cfg, /*per_instruction=*/true);
  const sim::RunStats b = runProgram(m, cfg);
  expectSameRunStats(a, b);
  EXPECT_GT(a.drowsy.wakeups, 0u);
}

// The watchdog contract: the retire loop polls the hook once per
// RetireChunk, after the chunk's architectural half, with the exact
// count retired so far. The loop below spans several chunks.

TEST(Watchdog, HookRisesEveryChunkAndChangesNoCounter) {
  const ir::Module m = loopProgram(40000, 1);
  for (const bool per_instruction : {true, false}) {
    SCOPED_TRACE(batchingName(per_instruction));
    sim::MachineConfig cfg = sim::baselineMachine();
    const sim::RunStats plain = runProgram(m, cfg, per_instruction);
    std::vector<u64> counts;
    cfg.budget_hook.check = [&counts](u64 n) { counts.push_back(n); };
    expectSameRunStats(runProgram(m, cfg, per_instruction), plain);

    ASSERT_GE(counts.size(), 3u);
    EXPECT_EQ(counts.back(), plain.instructions);
    // Every chunk but the last holds kBatches batches, and a batch
    // holds one to a line's worth of instructions.
    const u64 batches = sim::RetireChunk::kBatches;
    const u64 per_line = cfg.fetch.icache.line_bytes / 4;
    u64 before = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      SCOPED_TRACE(i);
      ASSERT_GT(counts[i], before);
      const u64 chunk = counts[i] - before;
      EXPECT_LE(chunk, batches * per_line);
      if (i + 1 < counts.size()) {
        EXPECT_GE(chunk, batches);
      }
      before = counts[i];
    }
  }
}

TEST(Watchdog, ThrowingHookAbortsTheRun) {
  const ir::Module m = loopProgram(40000, 1);
  for (const bool per_instruction : {true, false}) {
    SCOPED_TRACE(batchingName(per_instruction));
    sim::MachineConfig cfg = sim::baselineMachine();
    const u64 total = runProgram(m, cfg, per_instruction).instructions;
    std::vector<u64> seen;
    cfg.budget_hook.check = [&seen](u64 n) {
      seen.push_back(n);
      if (seen.size() == 2) {
        throw SimError("deadline exceeded after " + std::to_string(n) +
                       " instructions");
      }
    };
    EXPECT_THROW(runProgram(m, cfg, per_instruction), SimError);
    // Aborted at the second poll, long before the guest halts.
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_LT(seen.back(), total);
  }
}

TEST(Engine, RunawayGuestIsCaughtUnderBothEngines) {
  ModuleBuilder mb;
  auto& f = mb.func("main");
  const auto loop = f.label();
  f.bind(loop);
  f.jmp(loop);
  const ir::Module m = mb.build();
  for (const bool per_instruction : {true, false}) {
    SCOPED_TRACE(batchingName(per_instruction));
    sim::MachineConfig cfg = sim::baselineMachine();
    cfg.max_instructions = 10000;
    EXPECT_THROW(runProgram(m, cfg, per_instruction), SimError);
  }
}

}  // namespace
}  // namespace wp
