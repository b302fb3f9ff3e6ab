#include "sim/processor.hpp"

#include <algorithm>

#include "sim/block_cache.hpp"
#include "support/ensure.hpp"
#include "support/fnv.hpp"

namespace wp::sim {

const char* engineName(Engine e) {
  switch (e) {
    case Engine::kInterp:
      return "interp";
    case Engine::kBlock:
      return "block";
  }
  WP_UNREACHABLE("bad engine");
}

MachineConfig baselineMachine(cache::Scheme scheme, u32 wp_area_bytes) {
  MachineConfig m;
  m.fetch.icache = cache::CacheGeometry{32 * 1024, 32, 32};
  m.fetch.tlb_entries = 32;
  m.fetch.scheme = scheme;
  m.fetch.wp_area_bytes = wp_area_bytes;
  m.dcache.geometry = cache::CacheGeometry{32 * 1024, 32, 32};
  return m;
}

Processor::Processor(const MachineConfig& config, const mem::Image& image,
                     mem::Memory& memory)
    : config_(config),
      core_(image, memory),
      fetch_(config.fetch),
      dcache_(config.dcache),
      timing_(config.timing) {}

RunStats Processor::run() {
  // The block engine's batched fetchLine accounting is closed-form only
  // without a fault hook (hooks observe and corrupt state between
  // individual fetches) and without drowsy lines (a line can fall
  // drowsy between two same-line fetches). Those runs use the reference
  // interpreter — the equivalence suite shows the results are identical
  // wherever both engines apply.
  if (config_.engine == Engine::kBlock && fetch_.batchedLineFetchExact()) {
    return runBlock();
  }
  return runInterp();
}

RunStats Processor::runInterp() {
  CoreState state = core_.initialState();
  RunStats stats;

  // Watchdog countdown: a decrement per instruction instead of a modulo
  // keeps the hook's cost out of the hot loop when it is not installed.
  const bool hooked = static_cast<bool>(config_.budget_hook.check);
  if (hooked) {
    WP_ENSURE(config_.budget_hook.interval > 0,
              "BudgetHook.interval must be non-zero when a check is set");
  }
  u64 until_check = hooked ? config_.budget_hook.interval : 0;

  // Flow into the *next* fetch, derived from the previous instruction.
  cache::FetchFlow flow = cache::FetchFlow::kSequential;

  while (!state.halted) {
    WP_ENSURE(stats.instructions < config_.max_instructions,
              "instruction budget exhausted (runaway guest?)");

    const u32 pc = state.pc;
    const u32 fetch_cycles = fetch_.fetch(pc, flow);

    const StepInfo info = core_.step(state);
    ++stats.instructions;
    stats.retired_pc_hash = fnv1aWord(stats.retired_pc_hash, pc);

    u32 mem_cycles = 0;
    if (info.mem_addr.has_value()) {
      const bool is_store = isa::isStore(info.inst.op);
      stats.dataflow_hash = fnv1aWord(
          stats.dataflow_hash,
          (static_cast<u64>(*info.mem_addr) << 1) | (is_store ? 1u : 0u));
      mem_cycles = is_store ? dcache_.store(*info.mem_addr)
                            : dcache_.load(*info.mem_addr);
    }

    timing_.onInstruction(info.inst, pc, fetch_cycles, mem_cycles,
                          info.taken, info.next_pc);

    if (info.control_transfer && info.taken) {
      flow = info.indirect ? cache::FetchFlow::kTakenIndirect
                           : cache::FetchFlow::kTakenDirect;
    } else {
      flow = cache::FetchFlow::kSequential;
    }

    // The check runs *after* the instruction retires, so the hook sees
    // the exact retired count (k * interval on the k-th call).
    if (hooked && --until_check == 0) {
      config_.budget_hook.check(stats.instructions);
      until_check = config_.budget_hook.interval;
    }
  }

  collectInto(stats);
  return stats;
}

RunStats Processor::runBlock() {
  CoreState state = core_.initialState();
  RunStats stats;

  const bool hooked = static_cast<bool>(config_.budget_hook.check);
  if (hooked) {
    WP_ENSURE(config_.budget_hook.interval > 0,
              "BudgetHook.interval must be non-zero when a check is set");
  }
  u64 until_check = hooked ? config_.budget_hook.interval : 0;

  cache::FetchFlow flow = cache::FetchFlow::kSequential;
  const BlockCache blocks(core_, config_.fetch.icache.line_bytes);

  while (!state.halted) {
    WP_ENSURE(stats.instructions < config_.max_instructions,
              "instruction budget exhausted (runaway guest?)");

    // Batch size: the basic block, clipped so the instruction budget
    // and the watchdog both observe their exact boundary counts. A
    // clipped batch resumes mid-line next iteration; re-entering the
    // line sequentially takes the same same-line fetch paths the
    // interpreter would, so the split is invisible in the stats.
    u64 n64 = blocks.blockLenAt(state.pc);
    n64 = std::min(n64, config_.max_instructions - stats.instructions);
    if (hooked) n64 = std::min(n64, until_check);
    const u32 n = static_cast<u32>(n64);

    const u32 first_cycles = fetch_.fetchLine(state.pc, flow, n);

    for (u32 i = 0; i < n; ++i) {
      const u32 pc = state.pc;
      const StepInfo info = core_.step(state);
      ++stats.instructions;
      stats.retired_pc_hash = fnv1aWord(stats.retired_pc_hash, pc);

      u32 mem_cycles = 0;
      if (info.mem_addr.has_value()) {
        const bool is_store = isa::isStore(info.inst.op);
        stats.dataflow_hash = fnv1aWord(
            stats.dataflow_hash,
            (static_cast<u64>(*info.mem_addr) << 1) | (is_store ? 1u : 0u));
        mem_cycles = is_store ? dcache_.store(*info.mem_addr)
                              : dcache_.load(*info.mem_addr);
      }

      // Follow-up fetches within the batch cost exactly one cycle (the
      // fetchLine contract); only the first carries miss/walk penalties.
      timing_.onInstruction(info.inst, blocks.regUseAt(pc), pc,
                            i == 0 ? first_cycles : 1, mem_cycles,
                            info.taken, info.next_pc);

      // Only the batch's last instruction can transfer control (blocks
      // end at control transfers), but deriving flow uniformly keeps
      // this loop a line-for-line match of the interpreter's.
      if (info.control_transfer && info.taken) {
        flow = info.indirect ? cache::FetchFlow::kTakenIndirect
                             : cache::FetchFlow::kTakenDirect;
      } else {
        flow = cache::FetchFlow::kSequential;
      }
    }

    if (hooked && (until_check -= n) == 0) {
      config_.budget_hook.check(stats.instructions);
      until_check = config_.budget_hook.interval;
    }
  }

  collectInto(stats);
  return stats;
}

void Processor::collectInto(RunStats& stats) const {
  stats.cycles = timing_.cycles();
  stats.icache = fetch_.cacheStats();
  stats.dcache = dcache_.stats();
  stats.itlb = fetch_.tlbStats();
  stats.fetch = fetch_.fetchStats();
  stats.branches = timing_.branchStats();
  stats.squashed_probes = fetch_.squashedProbes();
  stats.link_flash_clears = fetch_.linkFlashClears();
  stats.icache_data_area_factor = fetch_.dataAreaFactor();
  stats.drowsy = fetch_.drowsyStats();
  stats.icache_lines = fetch_.icacheLines();
}

energy::RunEnergy Processor::price(const energy::EnergyModel& model,
                                   const MachineConfig& config,
                                   const RunStats& stats) {
  energy::RunEnergy e;
  e.icache = model.cacheEnergy(config.fetch.icache, stats.icache,
                               stats.icache_data_area_factor,
                               stats.link_flash_clears);
  e.dcache = model.cacheEnergy(config.dcache.geometry, stats.dcache);
  const bool wp_active = config.fetch.scheme == cache::Scheme::kWayPlacement;
  e.itlb = model.tlbEnergy(stats.itlb, wp_active);
  e.hint = wp_active ? model.hintEnergy(stats.fetch) : 0.0;
  e.core = model.coreEnergy(stats.instructions, stats.cycles);
  e.memory = model.memoryEnergy(stats.memLineTransfers());
  return e;
}

}  // namespace wp::sim
