// Microbenchmarks (google-benchmark) of the simulator's building
// blocks: cache lookups, fetch-path schemes, functional execution,
// chain formation and linking. These guard against performance
// regressions in the substrate the figure benches run on.
#include <benchmark/benchmark.h>

#include "cache/fetch_path.hpp"
#include "driver/runner.hpp"
#include "layout/strategy.hpp"
#include "profile/profiler.hpp"
#include "sim/processor.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace wp;

void BM_CamCacheFullLookup(benchmark::State& state) {
  cache::CamCache c(cache::CacheGeometry{32 * 1024, 32, 32});
  c.fill(0x1000, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.lookup(0x1000, cache::LookupKind::kFull));
  }
}
BENCHMARK(BM_CamCacheFullLookup);

void BM_CamCacheSingleWayLookup(benchmark::State& state) {
  cache::CamCache c(cache::CacheGeometry{32 * 1024, 32, 32});
  c.fill(0x1000, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.lookup(0x1000, cache::LookupKind::kSingleWay));
  }
}
BENCHMARK(BM_CamCacheSingleWayLookup);

// Sequential fetches inside the 16 KB way-placed region: single-way
// searches and intra-line skips — the cheap path.
void BM_FetchPath(benchmark::State& state) {
  cache::FetchPathConfig cfg;
  cfg.icache = cache::CacheGeometry{32 * 1024, 32, 32};
  cfg.scheme = static_cast<cache::Scheme>(state.range(0));
  cfg.wp_area_bytes =
      cfg.scheme == cache::Scheme::kWayPlacement ? 16 * 1024 : 0;
  cache::FetchPath fp(cfg);
  u32 pc = 0;
  for (auto _ : state) {
    fp.fetch(pc, cache::FetchFlow::kSequential);
    pc = (pc + 4) & 0x3fff;
  }
}
BENCHMARK(BM_FetchPath)
    ->Arg(static_cast<int>(cache::Scheme::kBaseline))
    ->Arg(static_cast<int>(cache::Scheme::kWayPlacement))
    ->Arg(static_cast<int>(cache::Scheme::kWayMemoization));

// Sequential fetches entirely *outside* the way-placed region (the pc
// walks [16 KB, 32 KB)): every line entry takes the full-lookup
// fallback the way-placement scheme claims costs nothing extra. The
// in-area variant above never leaves the WP area, so without this one
// a regression on the fallback path would go unnoticed.
void BM_FetchPathOutOfArea(benchmark::State& state) {
  cache::FetchPathConfig cfg;
  cfg.icache = cache::CacheGeometry{32 * 1024, 32, 32};
  cfg.scheme = static_cast<cache::Scheme>(state.range(0));
  cfg.wp_area_bytes =
      cfg.scheme == cache::Scheme::kWayPlacement ? 16 * 1024 : 0;
  cache::FetchPath fp(cfg);
  u32 pc = 16 * 1024;
  for (auto _ : state) {
    fp.fetch(pc, cache::FetchFlow::kSequential);
    pc = 16 * 1024 + ((pc + 4) & 0x3fff);
  }
}
BENCHMARK(BM_FetchPathOutOfArea)
    ->Arg(static_cast<int>(cache::Scheme::kBaseline))
    ->Arg(static_cast<int>(cache::Scheme::kWayPlacement))
    ->Arg(static_cast<int>(cache::Scheme::kWayMemoization));

// Batched line fetch (the retire loop's path): one fetchLine per
// 8-instruction line instead of 8 fetch() calls.
void BM_FetchLine(benchmark::State& state) {
  cache::FetchPathConfig cfg;
  cfg.icache = cache::CacheGeometry{32 * 1024, 32, 32};
  cfg.scheme = static_cast<cache::Scheme>(state.range(0));
  cfg.wp_area_bytes =
      cfg.scheme == cache::Scheme::kWayPlacement ? 16 * 1024 : 0;
  cache::FetchPath fp(cfg);
  const u32 per_line = cfg.icache.wordsPerLine();
  u32 pc = 0;
  for (auto _ : state) {
    fp.fetchLine(pc, cache::FetchFlow::kSequential, per_line);
    pc = (pc + cfg.icache.line_bytes) & 0x3fff;
  }
}
BENCHMARK(BM_FetchLine)
    ->Arg(static_cast<int>(cache::Scheme::kBaseline))
    ->Arg(static_cast<int>(cache::Scheme::kWayPlacement))
    ->Arg(static_cast<int>(cache::Scheme::kWayMemoization));

void BM_FunctionalExecution(benchmark::State& state) {
  auto w = workloads::makeWorkload("crc");
  const ir::Module module = w->build();
  const mem::Image image =
      layout::layoutImage(module, "original");
  double total_insts = 0;
  for (auto _ : state) {
    mem::Memory memory;
    image.loadInto(memory);
    w->prepare(memory, workloads::InputSize::kSmall);
    const auto res = profile::profileImage(image, memory);
    total_insts += static_cast<double>(res.instructions);
  }
  // kIsRate divides by the *total* elapsed time of every iteration, so
  // the numerator must be the instruction total, not one run's count.
  state.counters["insts/s"] =
      benchmark::Counter(total_insts, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FunctionalExecution)->Unit(benchmark::kMillisecond);

// The CI throughput smoke parses this benchmark's insts/s counter and
// enforces a floor.
void BM_FullProcessorSimulation(benchmark::State& state) {
  auto w = workloads::makeWorkload("crc");
  const ir::Module module = w->build();
  const mem::Image image =
      layout::layoutImage(module, "original");
  const sim::MachineConfig machine = sim::baselineMachine();
  double total_insts = 0;
  for (auto _ : state) {
    mem::Memory memory;
    image.loadInto(memory);
    w->prepare(memory, workloads::InputSize::kSmall);
    sim::Processor proc(machine, image, memory);
    const sim::RunStats stats = proc.run();
    total_insts += static_cast<double>(stats.instructions);
  }
  // See BM_FunctionalExecution: kIsRate wants the total, not one run.
  state.counters["insts/s"] =
      benchmark::Counter(total_insts, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullProcessorSimulation)->Unit(benchmark::kMillisecond);

void BM_ChainFormationAndLink(benchmark::State& state) {
  auto w = workloads::makeWorkload("rijndael_e");
  ir::Module module = w->build();
  for (ir::BasicBlock& b : module.blocks) b.exec_count = b.id * 7 + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        layout::layoutImage(module, "way_placement"));
  }
}
BENCHMARK(BM_ChainFormationAndLink)->Unit(benchmark::kMicrosecond);

void BM_ModuleBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto w = workloads::makeWorkload("sha");
    benchmark::DoNotOptimize(w->build());
  }
}
BENCHMARK(BM_ModuleBuild)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
