#include "sim/scheduler.hpp"

#include <algorithm>

#include "support/ensure.hpp"
#include "support/fnv.hpp"

namespace wp::sim {

ProcessContext::ProcessContext(u32 asid_in, std::string name_in,
                               const mem::Image& image,
                               mem::Memory& memory_in,
                               const MachineConfig& config)
    : asid(asid_in),
      name(std::move(name_in)),
      memory(memory_in),
      core(image, memory),
      state(core.initialState()),
      blocks(core, config.fetch.icache.line_bytes),
      dcache(config.dcache),
      timing(config.timing) {}

GuestScheduler::GuestScheduler(const MachineConfig& machine,
                               const SchedulerConfig& sched)
    : machine_(machine), sched_(sched), fetch_(machine.fetch) {
  WP_ENSURE(sched_.quantum > 0,
            "SchedulerConfig.quantum must be at least one instruction");
}

u32 GuestScheduler::addProcess(const std::string& name,
                               const mem::Image& image, u32 wp_area_bytes) {
  mem::Memory& memory =
      *owned_memory_.emplace_back(std::make_unique<mem::Memory>());
  image.loadInto(memory);
  return addProcessOn(name, image, memory, wp_area_bytes);
}

u32 GuestScheduler::addProcessOn(const std::string& name,
                                 const mem::Image& image, mem::Memory& memory,
                                 u32 wp_area_bytes) {
  WP_ENSURE(!ran_, "addProcess after run()");
  const u32 asid = static_cast<u32>(procs_.size());
  procs_.push_back(
      std::make_unique<ProcessContext>(asid, name, image, memory, machine_));
  procs_.back()->wp_area_bytes = wp_area_bytes;
  return asid;
}

mem::Memory& GuestScheduler::memoryOf(u32 asid) {
  WP_ENSURE(asid < procs_.size(), "memoryOf: unknown ASID");
  return procs_[asid]->memory;
}

int GuestScheduler::nextRunnable(u32 from) const {
  const u32 n = static_cast<u32>(procs_.size());
  for (u32 k = 0; k < n; ++k) {
    const u32 i = (from + k) % n;
    if (!procs_[i]->state.halted) return static_cast<int>(i);
  }
  return -1;
}

CoRunStats GuestScheduler::run() {
  WP_ENSURE(!procs_.empty(), "GuestScheduler::run with no processes");
  WP_ENSURE(!ran_, "GuestScheduler::run called twice");
  ran_ = true;

  CoRunStats out;
  RunStats& c = out.combined;

  const bool hooked = static_cast<bool>(machine_.budget_hook.check);
  if (hooked) {
    WP_ENSURE(machine_.budget_hook.interval > 0,
              "BudgetHook.interval must be non-zero when a check is set");
  }
  u64 until_check = hooked ? machine_.budget_hook.interval : 0;

  // The batched fetchLine accounting is only exact without a fault hook
  // and without drowsy lines; otherwise every batch is one instruction,
  // and fetchLine(pc, flow, 1) is exactly fetch(pc, flow).
  const bool batched = fetch_.batchedLineFetchExact();

  // Retires one instruction of @p p: hashes (per-process and the
  // interleaved combined ones), D-cache, timing, flow.
  const auto retire = [&](ProcessContext& p, u32 pc, const StepInfo& info,
                          u32 fetch_cycles) {
    ++c.instructions;
    ++p.instructions;
    c.retired_pc_hash = fnv1aWord(c.retired_pc_hash, pc);
    p.retired_pc_hash = fnv1aWord(p.retired_pc_hash, pc);

    u32 mem_cycles = 0;
    if (info.mem_addr.has_value()) {
      const bool is_store = isa::isStore(info.inst.op);
      const u64 v =
          (static_cast<u64>(*info.mem_addr) << 1) | (is_store ? 1u : 0u);
      c.dataflow_hash = fnv1aWord(c.dataflow_hash, v);
      p.dataflow_hash = fnv1aWord(p.dataflow_hash, v);
      mem_cycles = is_store ? p.dcache.store(*info.mem_addr)
                            : p.dcache.load(*info.mem_addr);
    }

    p.timing.onInstruction(info.inst, p.blocks.regUseAt(pc), pc, fetch_cycles,
                           mem_cycles, info.taken, info.next_pc);

    if (info.control_transfer && info.taken) {
      p.flow = info.indirect ? cache::FetchFlow::kTakenIndirect
                             : cache::FetchFlow::kTakenDirect;
    } else {
      p.flow = cache::FetchFlow::kSequential;
    }
  };

  int installed = -1;
  int cur = nextRunnable(0);
  while (cur >= 0) {
    ProcessContext& p = *procs_[static_cast<u32>(cur)];
    if (installed != cur) {
      fetch_.switchProcess(p.asid, p.wp_area_bytes, sched_.tlb_policy);
      if (installed >= 0) ++out.context_switches;
      installed = cur;
    }
    ++out.slices;

    u64 slice_remaining = sched_.quantum;
    while (!p.state.halted && slice_remaining > 0) {
      WP_ENSURE(c.instructions < machine_.max_instructions,
                "instruction budget exhausted (runaway guest?)");

      // Batch: the basic block, clipped at the slice boundary (so a
      // batch never spans a context switch), the instruction budget and
      // the watchdog interval. A clipped batch resumes mid-line on this
      // process's next batch; re-entering the line sequentially takes
      // the same fetch paths per-instruction fetches would.
      u64 n64 = batched ? p.blocks.blockLenAt(p.state.pc) : 1;
      n64 = std::min(n64, slice_remaining);
      n64 = std::min(n64, machine_.max_instructions - c.instructions);
      if (hooked) n64 = std::min(n64, until_check);
      const u32 n = static_cast<u32>(n64);

      // Follow-up fetches within the batch cost exactly one cycle (the
      // fetchLine contract); only the first carries miss/walk penalties.
      const u32 first_cycles = fetch_.fetchLine(p.state.pc, p.flow, n);
      for (u32 i = 0; i < n; ++i) {
        const u32 pc = p.state.pc;
        const StepInfo info = p.core.step(p.state);
        retire(p, pc, info, i == 0 ? first_cycles : 1);
      }
      slice_remaining -= n;
      // The check runs after the batch retires, so the hook sees the
      // exact retired count (k * interval on the k-th call).
      if (hooked && (until_check -= n) == 0) {
        machine_.budget_hook.check(c.instructions);
        until_check = machine_.budget_hook.interval;
      }
    }

    cur = nextRunnable(static_cast<u32>(cur) + 1);
  }

  // Shared fetch-path counters come out exactly like a solo run's.
  c.icache = fetch_.cacheStats();
  c.itlb = fetch_.tlbStats();
  c.fetch = fetch_.fetchStats();
  c.squashed_probes = fetch_.squashedProbes();
  c.link_flash_clears = fetch_.linkFlashClears();
  c.icache_data_area_factor = fetch_.dataAreaFactor();
  c.drowsy = fetch_.drowsyStats();
  c.icache_lines = fetch_.icacheLines();

  // Private per-process activity sums into the combined totals (the
  // serialized-execution model: one core, N time-sliced guests).
  out.processes.reserve(procs_.size());
  for (const auto& pp : procs_) {
    const ProcessContext& p = *pp;
    c.cycles += p.timing.cycles();
    c.dcache += p.dcache.stats();
    c.branches.branches += p.timing.branchStats().branches;
    c.branches.mispredicts += p.timing.branchStats().mispredicts;

    ProcessRunStats ps;
    ps.name = p.name;
    ps.asid = p.asid;
    ps.instructions = p.instructions;
    ps.retired_pc_hash = p.retired_pc_hash;
    ps.dataflow_hash = p.dataflow_hash;
    ps.cycles = p.timing.cycles();
    ps.dcache = p.dcache.stats();
    ps.branches = p.timing.branchStats();
    out.processes.push_back(std::move(ps));
  }
  return out;
}

}  // namespace wp::sim
