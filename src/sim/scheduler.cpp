#include "sim/scheduler.hpp"

#include <algorithm>

#include "support/ensure.hpp"
#include "support/fnv.hpp"
#include "support/metrics.hpp"

namespace wp::sim {

/// One attached machine: the per-machine half of the retire loop.
struct GuestScheduler::Machine {
  Machine(const MachineConfig& config_in, cache::TlbSwitchPolicy policy)
      : config(config_in), tlb_policy(policy), fetch(config_in.fetch) {}

  MachineConfig config;
  cache::TlbSwitchPolicy tlb_policy;
  cache::FetchPath fetch;
  /// Each process's WP limit on this machine, by ASID.
  std::vector<u32> wp_area;
  /// Each process's timing on this machine, built when the run starts:
  /// a scoreboard when the machine runs alone, else a stall window.
  std::vector<pipeline::Scoreboard> scoreboards;
  std::vector<pipeline::StallWindow> windows;
  /// The fetch cycles of the batch being replayed, one per instruction;
  /// a batched machine writes only the first (the rest stay 1).
  std::vector<u32> fetch_cycles;
  /// fetchLine's closed form is exact here (checked once per run).
  bool batched = true;
  /// The process whose fetch context is installed, or -1 before the
  /// first batch.
  int installed = -1;
  double replay_seconds = 0.0;
  WindowStats window_stats;
};

/// What the architectural half counted over the whole stream.
struct GuestScheduler::StreamTotals {
  u64 instructions = 0;
  u64 retired_pc_hash = kFnvOffset;
  u64 dataflow_hash = kFnvOffset;
  u64 context_switches = 0;
  u64 slices = 0;
};

ProcessContext::ProcessContext(u32 asid_in, std::string name_in,
                               const mem::Image& image,
                               mem::Memory& memory_in,
                               const MachineConfig& config)
    : asid(asid_in),
      name(std::move(name_in)),
      memory(memory_in),
      core(image, memory),
      state(core.initialState()),
      dcache(config.dcache),
      btb(config.timing.btb_entries),
      reference(config.timing) {}

GuestScheduler::GuestScheduler(const MachineConfig& machine,
                               const SchedulerConfig& sched)
    : sched_(sched) {
  WP_ENSURE(sched_.quantum > 0,
            "SchedulerConfig.quantum must be at least one instruction");
  machines_.push_back(std::make_unique<Machine>(machine, sched.tlb_policy));
}

GuestScheduler::~GuestScheduler() = default;

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
  WP_ENSURE(machines_.size() == 1, "addProcess after addMachine");
  WP_ENSURE(procs_.size() < 256, "a scheduler runs at most 256 processes");
  const u32 asid = static_cast<u32>(procs_.size());
  procs_.push_back(std::make_unique<ProcessContext>(
      asid, name, image, memory, machines_.front()->config));
  machines_.front()->wp_area.push_back(wp_area_bytes);
  return asid;
}

u32 GuestScheduler::addMachine(const MachineConfig& machine,
                               cache::TlbSwitchPolicy tlb_policy,
                               std::vector<u32> wp_area_bytes) {
  WP_ENSURE(!ran_, "addMachine after run()");
  WP_ENSURE(wp_area_bytes.size() == procs_.size(),
            "addMachine needs one WP limit per registered process");
  const MachineConfig& arch = machines_.front()->config;
  const cache::CacheGeometry& d = machine.dcache.geometry;
  const cache::CacheGeometry& ad = arch.dcache.geometry;
  const pipeline::TimingConfig& t = machine.timing;
  const pipeline::TimingConfig& at = arch.timing;
  WP_ENSURE(d.size_bytes == ad.size_bytes && d.line_bytes == ad.line_bytes &&
                d.ways == ad.ways &&
                machine.dcache.mem_latency_cycles ==
                    arch.dcache.mem_latency_cycles &&
                t.branch_mispredict_penalty == at.branch_mispredict_penalty &&
                t.load_use_latency == at.load_use_latency &&
                t.mul_latency == at.mul_latency &&
                t.btb_entries == at.btb_entries &&
                machine.max_instructions == arch.max_instructions,
            "addMachine: the D-cache, timing latencies, BTB and instruction "
            "budget belong to the shared half and must equal the first "
            "machine's");
  WP_ENSURE(!machine.budget_hook.check,
            "addMachine: the budget hook belongs to the shared half");
  machines_.push_back(std::make_unique<Machine>(machine, tlb_policy));
  machines_.back()->wp_area = std::move(wp_area_bytes);
  return static_cast<u32>(machines_.size() - 1);
}

mem::Memory& GuestScheduler::memoryOf(u32 asid) {
  WP_ENSURE(asid < procs_.size(), "memoryOf: unknown ASID");
  return procs_[asid]->memory;
}

cache::FetchPath& GuestScheduler::fetchPath(u32 machine) {
  WP_ENSURE(machine < machines_.size(), "fetchPath: unknown machine");
  return machines_[machine]->fetch;
}

const MachineConfig& GuestScheduler::machine() const {
  return machines_.front()->config;
}

double GuestScheduler::replaySeconds(u32 machine) const {
  WP_ENSURE(machine < machines_.size(), "replaySeconds: unknown machine");
  return machines_[machine]->replay_seconds;
}

GuestScheduler::WindowStats GuestScheduler::windowStats(u32 machine) const {
  WP_ENSURE(machine < machines_.size(), "windowStats: unknown machine");
  return machines_[machine]->window_stats;
}

int GuestScheduler::nextRunnable(u32 from) const {
  const u32 n = static_cast<u32>(procs_.size());
  for (u32 k = 0; k < n; ++k) {
    const u32 i = (from + k) % n;
    if (!procs_[i]->state.halted) return static_cast<int>(i);
  }
  return -1;
}

void GuestScheduler::replay(Machine& m, const RetireChunk& chunk) {
  const u32* inst = chunk.insts.data();
  for (const RetireChunk::Batch& b : chunk.batches) {
    if (b.asid != m.installed) {
      m.fetch.switchProcess(b.asid, m.wp_area[b.asid], m.tlb_policy);
      m.installed = b.asid;
    }
    pipeline::Scoreboard& sb = m.scoreboards[b.asid];
    // A batch is consecutive slots, so its operand decodes are too.
    const pipeline::RegUse* use = &procs_[b.asid]->blocks->regUseAt(b.pc);
    if (m.batched) {
      // Follow-up fetches within the batch cost exactly one cycle (the
      // fetchLine contract); only the first carries miss/walk penalties.
      u32 fetch_cycles = m.fetch.fetchLine(b.pc, b.flow, b.n);
      for (u32 i = 0; i < b.n; ++i) {
        sb.onInstruction(use[i], fetch_cycles, inst[i] >> 1,
                         (inst[i] & 1u) != 0);
        fetch_cycles = 1;
      }
    } else {
      // By fetchLine's contract, n one-instruction fetches are the same
      // fetch sequence as the batch.
      for (u32 i = 0; i < b.n; ++i) {
        const u32 fetch_cycles = m.fetch.fetchLine(
            b.pc + 4 * i, i == 0 ? b.flow : cache::FetchFlow::kSequential, 1);
        sb.onInstruction(use[i], fetch_cycles, inst[i] >> 1,
                         (inst[i] & 1u) != 0);
      }
    }
    inst += b.n;
  }
}

void GuestScheduler::replayShared(Machine& m, const RetireChunk& chunk) {
  const u32* inst = chunk.insts.data();
  u32* const cycles = m.fetch_cycles.data();
  const std::size_t batches = chunk.batches.size();
  for (std::size_t bi = 0; bi < batches; ++bi) {
    const RetireChunk::Batch& b = chunk.batches[bi];
    if (b.asid != m.installed) {
      m.fetch.switchProcess(b.asid, m.wp_area[b.asid], m.tlb_policy);
      m.installed = b.asid;
    }
    bool stalled;
    if (m.batched) {
      // Only the first fetch of a batch can stall (the fetchLine
      // contract); the follow-ups' entries stay 1.
      cycles[0] = m.fetch.fetchLine(b.pc, b.flow, b.n);
      stalled = cycles[0] != 1;
    } else {
      stalled = false;
      for (u32 i = 0; i < b.n; ++i) {
        cycles[i] = m.fetch.fetchLine(
            b.pc + 4 * i, i == 0 ? b.flow : cache::FetchFlow::kSequential, 1);
        stalled |= cycles[i] != 1;
      }
    }
    // Without a stall, a closed window stays the reference shifted by
    // its delta: nothing to time.
    pipeline::StallWindow& w = m.windows[b.asid];
    if (stalled || w.isOpen()) {
      if (!w.isOpen()) {
        w.open(chunk.references[bi]);
        ++m.window_stats.windows;
      }
      const pipeline::RegUse* use = &procs_[b.asid]->blocks->regUseAt(b.pc);
      for (u32 i = 0; i < b.n; ++i) {
        w.onInstruction(use[i], cycles[i], inst[i] >> 1, (inst[i] & 1u) != 0);
      }
      m.window_stats.instructions += b.n;
      w.tryClose();
    }
    inst += b.n;
  }
}

CoRunStats GuestScheduler::run() {
  WP_ENSURE(machines_.size() == 1,
            "GuestScheduler::run with several machines: use runMachines");
  return std::move(runMachines().front());
}

template <bool kShared>
GuestScheduler::StreamTotals GuestScheduler::retire(u32 line_bytes) {
  const MachineConfig& arch = machines_.front()->config;

  StreamTotals t;
  RetireChunk chunk;
  chunk.batches.reserve(RetireChunk::kBatches);
  chunk.insts.reserve(RetireChunk::kBatches * (line_bytes / 4));
  if constexpr (kShared) chunk.references.reserve(RetireChunk::kBatches);

  int cur = nextRunnable(0);
  int last = -1;
  u64 slice_remaining = 0;
  while (cur >= 0) {
    // The architectural half: one chunk of batches.
    chunk.batches.clear();
    chunk.insts.clear();
    if constexpr (kShared) chunk.references.clear();
    do {
      ProcessContext& p = *procs_[static_cast<u32>(cur)];
      if (slice_remaining == 0) {
        if (last != cur) {
          if (last >= 0) ++t.context_switches;
          last = cur;
        }
        ++t.slices;
        slice_remaining = sched_.quantum;
      }
      WP_ENSURE(t.instructions < arch.max_instructions,
                "instruction budget exhausted (runaway guest?)");

      // Batch: the basic block, clipped at the slice boundary (so a
      // batch never spans a context switch) and the instruction budget.
      // A clipped batch resumes mid-line on this process's next batch;
      // re-entering the line sequentially takes the same fetch paths
      // per-instruction fetches would. An out-of-code or misaligned pc
      // gets a batch of one, and its step raises the fault before any
      // machine fetches it.
      u64 n64 = p.blocks->blockLenAt(p.state.pc);
      n64 = std::min(n64, slice_remaining);
      n64 = std::min(n64, arch.max_instructions - t.instructions);
      const u32 n = static_cast<u32>(n64);

      chunk.batches.push_back({p.state.pc, static_cast<u16>(n),
                               static_cast<u8>(p.asid), p.flow});
      if constexpr (kShared) chunk.references.push_back(p.reference.state());
      for (u32 i = 0; i < n; ++i) {
        const u32 pc = p.state.pc;
        const StepInfo info = p.core.step(p.state);
        ++p.instructions;
        t.retired_pc_hash = fnv1aWord(t.retired_pc_hash, pc);
        p.retired_pc_hash = fnv1aWord(p.retired_pc_hash, pc);

        u32 word = 0;
        if (info.mem_addr.has_value()) {
          const bool is_store = isa::isStore(info.inst.op);
          const u64 v =
              (static_cast<u64>(*info.mem_addr) << 1) | (is_store ? 1u : 0u);
          t.dataflow_hash = fnv1aWord(t.dataflow_hash, v);
          p.dataflow_hash = fnv1aWord(p.dataflow_hash, v);
          word = (is_store ? p.dcache.store(*info.mem_addr)
                           : p.dcache.load(*info.mem_addr))
                 << 1;
        }
        if (info.control_transfer) {
          if (p.btb.mispredicts(pc, info.taken, info.next_pc)) word |= 1u;
          p.flow = !info.taken     ? cache::FetchFlow::kSequential
                   : info.indirect ? cache::FetchFlow::kTakenIndirect
                                   : cache::FetchFlow::kTakenDirect;
        } else {
          p.flow = cache::FetchFlow::kSequential;
        }
        chunk.insts.push_back(word);
        if constexpr (kShared) {
          p.reference.onInstruction(p.blocks->regUseAt(pc), 1, word >> 1,
                                    (word & 1u) != 0);
        }
      }
      t.instructions += n;
      slice_remaining -= n;
      if (p.state.halted || slice_remaining == 0) {
        slice_remaining = 0;
        cur = nextRunnable(static_cast<u32>(cur) + 1);
      }
    } while (cur >= 0 && chunk.batches.size() < RetireChunk::kBatches);
    // Poll the watchdog before the machines' halves, so a run past its
    // deadline stops without replaying the chunk.
    if (arch.budget_hook.check) arch.budget_hook.check(t.instructions);

    // Every machine's half consumes the chunk; only a shared pass
    // splits its host cost between its machines.
    for (const auto& m : machines_) {
      if constexpr (kShared) {
        const double start = threadCpuSeconds();
        replayShared(*m, chunk);
        m->replay_seconds += threadCpuSeconds() - start;
      } else {
        replay(*m, chunk);
      }
    }
  }
  return t;
}

std::vector<CoRunStats> GuestScheduler::runMachines() {
  WP_ENSURE(!procs_.empty(), "GuestScheduler::run with no processes");
  WP_ENSURE(!ran_, "GuestScheduler::run called twice");
  ran_ = true;

  // A batch stays inside one line of every machine, so the smallest
  // line sets the BlockCache extents. Each machine checks once whether
  // its closed-form line fetch is exact (no fault hook, no drowsy lines).
  const bool shared = machines_.size() > 1;
  u32 line_bytes = machines_.front()->config.fetch.icache.line_bytes;
  for (const auto& m : machines_) {
    line_bytes = std::min(line_bytes, m->config.fetch.icache.line_bytes);
  }
  WP_ENSURE(line_bytes / 4 <= 0xffff, "I-cache lines hold too many slots");
  for (const auto& m : machines_) {
    if (shared) {
      m->windows.assign(procs_.size(),
                        pipeline::StallWindow(m->config.timing));
      m->fetch_cycles.assign(line_bytes / 4, 1);
    } else {
      m->scoreboards.assign(procs_.size(),
                            pipeline::Scoreboard(m->config.timing));
    }
    m->batched = m->fetch.batchedLineFetchExact();
  }
  for (const auto& p : procs_) p->blocks.emplace(p->core, line_bytes);

  const StreamTotals t = shared ? retire<true>(line_bytes)
                                : retire<false>(line_bytes);

  std::vector<CoRunStats> out(machines_.size());
  for (std::size_t mi = 0; mi < machines_.size(); ++mi) {
    const Machine& m = *machines_[mi];
    CoRunStats& co = out[mi];
    RunStats& c = co.combined;
    c.instructions = t.instructions;
    c.retired_pc_hash = t.retired_pc_hash;
    c.dataflow_hash = t.dataflow_hash;
    // Shared fetch-path counters come out exactly like a solo run's.
    c.icache = m.fetch.cacheStats();
    c.itlb = m.fetch.tlbStats();
    c.fetch = m.fetch.fetchStats();
    c.squashed_probes = m.fetch.squashedProbes();
    c.link_flash_clears = m.fetch.linkFlashClears();
    c.icache_data_area_factor = m.fetch.dataAreaFactor();
    c.drowsy = m.fetch.drowsyStats();
    c.icache_lines = m.fetch.icacheLines();

    // Private per-process activity sums into the combined totals (the
    // serialized-execution model: one core, N time-sliced guests).
    co.processes.reserve(procs_.size());
    for (const auto& pp : procs_) {
      const ProcessContext& p = *pp;
      const u64 cycles =
          shared ? m.windows[p.asid].cycles(p.reference.cycles())
                 : m.scoreboards[p.asid].cycles();
      c.cycles += cycles;
      c.dcache += p.dcache.stats();
      c.branches.branches += p.btb.stats().branches;
      c.branches.mispredicts += p.btb.stats().mispredicts;

      ProcessRunStats ps;
      ps.name = p.name;
      ps.asid = p.asid;
      ps.instructions = p.instructions;
      ps.retired_pc_hash = p.retired_pc_hash;
      ps.dataflow_hash = p.dataflow_hash;
      ps.cycles = cycles;
      ps.dcache = p.dcache.stats();
      ps.branches = p.btb.stats();
      co.processes.push_back(std::move(ps));
    }
    co.context_switches = t.context_switches;
    co.slices = t.slices;
  }
  return out;
}

}  // namespace wp::sim
