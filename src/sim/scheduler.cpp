#include "sim/scheduler.hpp"

#include <algorithm>
#include <iterator>
#include <map>

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

  /// The fetch-path memo of a shared, batched machine, by transition
  /// id: the epoch at which fetchLine last served the id without
  /// changing the fetch path's state, the counters it moved then (an
  /// index into deltas, which holds each distinct delta once) and the
  /// cycles it returned. Valid only at that epoch.
  struct Learned {
    static constexpr u64 kNever = ~u64{0};
    u64 epoch = kNever;
    u32 delta = 0;
    u32 cycles = 0;
  };
  std::vector<Learned> learned;
  std::vector<cache::FetchPath::Counters> deltas;
  std::map<cache::FetchPath::Counters, u32> delta_index;
  /// The fetch path's counters when the memo last looked.
  cache::FetchPath::Counters seen{};
  MemoStats memo_stats;

  /// Records that transition @p id moved the counters from seen to now
  /// and took @p cycles at @p epoch, which it left unchanged. An id
  /// already learned at this epoch must have moved them alike.
  void learn(u32 id, u64 epoch, u32 cycles) {
    const cache::FetchPath::Counters now = fetch.counters();
    cache::FetchPath::Counters delta;
    for (std::size_t k = 0; k < delta.size(); ++k) delta[k] = now[k] - seen[k];
    seen = now;
    if (id >= learned.size()) learned.resize(id + 1);
    Learned& l = learned[id];
    if (l.epoch == epoch) {
      WP_ENSURE(l.cycles == cycles && deltas[l.delta] == delta,
                "a memoized fetch transition moved other counters at the "
                "same fetch-path epoch");
      return;
    }
    // Mostly the id relearns its old delta after an unrelated change.
    if (l.epoch == Learned::kNever || deltas[l.delta] != delta) {
      const auto [it, fresh] = delta_index.try_emplace(
          delta, static_cast<u32>(deltas.size()));
      if (fresh) deltas.push_back(delta);
      l.delta = it->second;
    }
    l.epoch = epoch;
    l.cycles = cycles;
  }
};

/// The architectural half's transition interner: one dense id per
/// distinct (process, previous pc, pc, n, flow) of the stream, where
/// the previous pc is the last of the stream's previous batch, or none
/// when that batch is another process's or there is none. Each process
/// has a direct table by code slot, and each slot heads a short list of
/// the (previous pc, n, flow) seen there, so an id costs one table read
/// and a compare or two.
class GuestScheduler::Transitions {
 public:
  explicit Transitions(
      const std::vector<std::unique_ptr<ProcessContext>>& procs) {
    for (const auto& p : procs) {
      heads_.emplace_back((p->core.codeEnd() - p->core.codeBase()) / 4,
                          kEnd);
    }
  }

  /// True when the stream's next batch, one of @p p's, has no previous
  /// pc: the stream starts or changes process there.
  [[nodiscard]] bool changesProcess(const ProcessContext& p) const {
    return static_cast<int>(p.asid) != previous_asid_;
  }

  /// Appends the id of the stream's next batch, @p n instructions from
  /// @p pc (a valid slot of @p p's code) reached by @p flow, to
  /// @p chunk's ids and counts it in the chunk's histogram.
  void add(RetireChunk& chunk, const ProcessContext& p, u32 pc, u32 n,
           cache::FetchFlow flow) {
    const u32 previous = changesProcess(p) ? kNoPrevious : previous_pc_;
    previous_asid_ = static_cast<int>(p.asid);
    previous_pc_ = pc + 4 * (n - 1);
    const u32 id = intern(heads_[p.asid][(pc - p.core.codeBase()) / 4],
                          previous, n | static_cast<u32>(flow) << 16);
    chunk.ids.push_back(id);
    if (counts_[id]++ == 0) chunk.histogram.push_back({id, 0});
  }

  /// Moves the counts into @p chunk's histogram, zeroing them for the
  /// next chunk.
  void closeHistogram(RetireChunk& chunk) {
    for (RetireChunk::Transition& t : chunk.histogram) {
      t.count = counts_[t.id];
      counts_[t.id] = 0;
    }
  }

 private:
  /// The previous pc of a batch that has none: never a word-aligned pc.
  static constexpr u32 kNoPrevious = 1;
  static constexpr u32 kEnd = ~u32{0};
  struct Entry {
    u32 previous;
    u32 shape;  ///< n | flow << 16
    u32 next;   ///< the slot's next entry, or kEnd
  };

  /// The id of (@p previous, @p shape) in the list headed by @p head,
  /// added when new.
  u32 intern(u32& head, u32 previous, u32 shape) {
    for (u32 e = head; e != kEnd; e = entries_[e].next) {
      if (entries_[e].previous == previous && entries_[e].shape == shape) {
        return e;
      }
    }
    const u32 id = static_cast<u32>(entries_.size());
    entries_.push_back({previous, shape, head});
    counts_.push_back(0);
    head = id;
    return id;
  }

  std::vector<std::vector<u32>> heads_;  ///< by process, then code slot
  std::vector<Entry> entries_;           ///< by id
  std::vector<u32> counts_;              ///< by id, in the chunk being filled
  int previous_asid_ = -1;
  u32 previous_pc_ = 0;
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

GuestScheduler::MemoStats GuestScheduler::memoStats(u32 machine) const {
  WP_ENSURE(machine < machines_.size(), "memoStats: unknown machine");
  return machines_[machine]->memo_stats;
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
  if (m.batched) {
    if (priceSteady(m, chunk)) return;
    m.seen = m.fetch.counters();
  }
  const u32* inst = chunk.insts.data();
  u32* const cycles = m.fetch_cycles.data();
  const std::size_t batches = chunk.batches.size();
  for (std::size_t bi = 0; bi < batches; ++bi) {
    const RetireChunk::Batch& b = chunk.batches[bi];
    const u64 epoch = m.fetch.epoch();
    if (b.asid != m.installed) {
      m.fetch.switchProcess(b.asid, m.wp_area[b.asid], m.tlb_policy);
      m.installed = b.asid;
    }
    bool stalled;
    if (m.batched) {
      // Only the first fetch of a batch can stall (the fetchLine
      // contract); the follow-ups' entries stay 1. A batch that left
      // the epoch alone teaches the memo.
      cycles[0] = m.fetch.fetchLine(b.pc, b.flow, b.n);
      stalled = cycles[0] != 1;
      if (m.fetch.epoch() == epoch) {
        m.learn(chunk.ids[bi], epoch, cycles[0]);
      } else {
        m.seen = m.fetch.counters();
      }
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
    if (stalled || m.windows[b.asid].isOpen()) timeWindow(m, chunk, bi, inst);
    inst += b.n;
  }
  if (m.batched) ++m.memo_stats.learned_chunks;
}

bool GuestScheduler::priceSteady(Machine& m, const RetireChunk& chunk) {
  const u64 epoch = m.fetch.epoch();
  bool stalls = false;
  for (const RetireChunk::Transition& t : chunk.histogram) {
    if (t.id >= m.learned.size() || m.learned[t.id].epoch != epoch) {
      return false;
    }
    stalls |= m.learned[t.id].cycles != 1;
  }
  // Every id was learned at this epoch without changing it, so an
  // in-order replay would stay at this epoch and move the counters by
  // each id's delta, batch after batch.
  cache::FetchPath::Counters sum{};
  for (const RetireChunk::Transition& t : chunk.histogram) {
    const cache::FetchPath::Counters& d = m.deltas[m.learned[t.id].delta];
    for (std::size_t k = 0; k < sum.size(); ++k) sum[k] += t.count * d[k];
  }
  m.fetch.addCounters(sum);

  // Every switch changes the epoch, so the chunk is all the installed
  // process's.
  const RetireChunk::Batch& last = chunk.batches.back();
  WP_ENSURE(static_cast<int>(last.asid) == m.installed,
            "a priced chunk must not switch processes");
  if (stalls || m.windows[last.asid].isOpen()) {
    const pipeline::StallWindow& w = m.windows[last.asid];
    const u32* inst = chunk.insts.data();
    for (std::size_t bi = 0; bi < chunk.batches.size(); ++bi) {
      const u32 cycles = m.learned[chunk.ids[bi]].cycles;
      if (cycles != 1 || w.isOpen()) {
        m.fetch_cycles[0] = cycles;
        timeWindow(m, chunk, bi, inst);
      }
      inst += chunk.batches[bi].n;
    }
  }
  m.fetch.resumeAfter(last.pc + 4 * (last.n - 1u));
  m.memo_stats.priced_batches += chunk.batches.size();
  return true;
}

void GuestScheduler::timeWindow(Machine& m, const RetireChunk& chunk,
                                std::size_t bi, const u32* inst) {
  const RetireChunk::Batch& b = chunk.batches[bi];
  pipeline::StallWindow& w = m.windows[b.asid];
  if (!w.isOpen()) {
    w.open(referenceAt(chunk, bi));
    ++m.window_stats.windows;
  }
  const pipeline::RegUse* use = &procs_[b.asid]->blocks->regUseAt(b.pc);
  for (u32 i = 0; i < b.n; ++i) {
    w.onInstruction(use[i], m.fetch_cycles[i], inst[i] >> 1,
                    (inst[i] & 1u) != 0);
  }
  m.window_stats.instructions += b.n;
  w.tryClose();
}

pipeline::ScoreboardState GuestScheduler::referenceAt(
    const RetireChunk& chunk, std::size_t bi) const {
  const auto after = std::upper_bound(
      chunk.references.begin(), chunk.references.end(), bi,
      [](std::size_t b, const RetireChunk::Reference& r) {
        return b < r.batch;
      });
  const RetireChunk::Reference& r = *std::prev(after);
  if (r.batch == bi) return r.state;
  // Re-step the reference from the snapshot: every fetch one cycle, the
  // same instructions, all one process's.
  pipeline::Scoreboard reference(machines_.front()->config.timing);
  reference.restore(r.state, 0);
  const u32* inst = chunk.insts.data() + r.inst;
  for (std::size_t j = r.batch; j < bi; ++j) {
    const RetireChunk::Batch& b = chunk.batches[j];
    const pipeline::RegUse* use = &procs_[b.asid]->blocks->regUseAt(b.pc);
    for (u32 i = 0; i < b.n; ++i) {
      reference.onInstruction(use[i], 1, inst[i] >> 1, (inst[i] & 1u) != 0);
    }
    inst += b.n;
  }
  return reference.state();
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
  std::optional<Transitions> transitions;
  if constexpr (kShared) {
    transitions.emplace(procs_);
    chunk.ids.reserve(RetireChunk::kBatches);
    chunk.references.reserve(RetireChunk::kBatches /
                             RetireChunk::kReferenceInterval);
  }

  int cur = nextRunnable(0);
  int last = -1;
  u64 slice_remaining = 0;
  while (cur >= 0) {
    // The architectural half: one chunk of batches.
    chunk.batches.clear();
    chunk.insts.clear();
    if constexpr (kShared) {
      chunk.ids.clear();
      chunk.histogram.clear();
      chunk.references.clear();
    }
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

      const u32 pc0 = p.state.pc;
      const cache::FetchFlow flow0 = p.flow;
      if constexpr (kShared) {
        if (chunk.batches.size() % RetireChunk::kReferenceInterval == 0 ||
            transitions->changesProcess(p)) {
          chunk.references.push_back(
              {static_cast<u32>(chunk.batches.size()),
               static_cast<u32>(chunk.insts.size()), p.reference.state()});
        }
      }
      chunk.batches.push_back(
          {pc0, static_cast<u16>(n), static_cast<u8>(p.asid), flow0});
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
      // Interned after the steps, which fault on a pc outside the code.
      if constexpr (kShared) transitions->add(chunk, p, pc0, n, flow0);
      t.instructions += n;
      slice_remaining -= n;
      if (p.state.halted || slice_remaining == 0) {
        slice_remaining = 0;
        cur = nextRunnable(static_cast<u32>(cur) + 1);
      }
    } while (cur >= 0 && chunk.batches.size() < RetireChunk::kBatches);
    if constexpr (kShared) {
      transitions->closeHistogram(chunk);
      batches_ += chunk.batches.size();
    }
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
