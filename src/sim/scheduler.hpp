// Round-robin guest scheduler: time-slices N guest processes over one
// shared instruction-fetch path. Its run() is the simulator's only
// retire loop — a solo Processor run is a one-process scheduler whose
// quantum is the instruction budget (one slice, no switch).
//
// This is the multiprogramming fix for the model's original
// flat-address-space assumption: each guest owns a ProcessContext — its
// own Memory, functional core, D-cache and branch predictor, and its
// own equivalence-hash accumulators — while the *instruction* side
// (way-hint bit, I-TLB, I-cache, memo links, drowsy state) is the one
// shared FetchPath all processes contend on. A context switch pays the
// real switch-time costs (Tlb::switchContext per policy, VIVT I-cache
// flush, memo flash-clear, hint/MRU reset, drowsy onCacheFlush — see
// FetchPath::switchProcess), so the sharing can perturb energy and
// timing but never architecture: each process's
// retired_pc_hash/dataflow_hash must equal its solo run for any switch
// quantum, which the multiprog bench and test_multiprog enforce.
//
// The retire loop has two halves. The architectural half runs
// Core::step, the hashes, each process's D-cache and each process's
// branch predictor — none of which reads the I-cache — over a bounded
// chunk of BlockCache batches, and records the chunk as a RetireChunk.
// Each attached machine's half then consumes the chunk: its own
// FetchPath (one fetchLine per batch, switchProcess when the batch's
// process changes) and its timing of each process. So machines that
// differ only in fetch-side fields share one functional pass
// (addMachine); a lone run is a scheduler with one machine. When a
// machine's closed-form line fetch is inexact (fault hook attached,
// drowsy lines on) it replays each batch as one-instruction fetches,
// which is a plain FetchPath::fetch per retirement.
//
// How a machine times a process depends on how many machines share the
// pass. A lone machine steps one scoreboard per process on every
// instruction. With several machines, the architectural half also
// steps one reference scoreboard per process whose every fetch costs
// one cycle, and snapshots its state every few batches; a machine then
// steps scoreboards only in the stall windows after its fetches that
// cost more than one cycle (pipeline::StallWindow), and is otherwise a
// fixed number of cycles behind the reference.
//
// With several machines, a machine also memoizes its own fetch path,
// as way-memoization memoizes line crossings. The architectural half
// interns each batch's transition into a dense id and hands each chunk
// an (id, count) histogram. A machine whose closed-form line fetch is
// exact records, per id, the counters fetchLine moved and the cycles
// it took, at the FetchPath::epoch() it saw. A chunk whose ids were all
// learned at the machine's current epoch is priced from its histogram:
// the counters add count x delta, and only the batches that stall or
// that an open stall window covers are visited, in order. Any other
// chunk replays in order, and teaches the memo.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/block_cache.hpp"
#include "sim/processor.hpp"

namespace wp::sim {

/// Scheduling policy of one co-run.
struct SchedulerConfig {
  /// Retired instructions per time slice (must be > 0). A process runs
  /// this many instructions (or until HALT), then the next runnable
  /// process is switched in.
  u64 quantum = 10'000;
  /// What a switch does to the first machine's I-TLB (flush vs ASID
  /// tags); every machine added later names its own.
  cache::TlbSwitchPolicy tlb_policy = cache::TlbSwitchPolicy::kFlush;
};

/// One bounded chunk of the architectural stream: everything a
/// machine's half needs besides its own fetch path and timing. A plain
/// record, so any consumer of the retired stream can read it.
struct RetireChunk {
  /// Batches per chunk. The chunk is the lockstep bound between the
  /// functional pass and its machines: large enough that switching
  /// between the halves is rare, small enough (about 100 KB) to stay
  /// in cache. A prototype of this split measured sizes from 512 to
  /// 32768 batches alike.
  static constexpr std::size_t kBatches = 8192;

  /// One BlockCache batch: @p n straight-line instructions from @p pc,
  /// inside one cache line of the smallest line size in the run, clipped
  /// at slice and budget boundaries.
  struct Batch {
    u32 pc;
    u16 n;
    u8 asid;               ///< the process that retired it
    cache::FetchFlow flow;  ///< how control reached pc
  };
  std::vector<Batch> batches;
  /// One word per retired instruction, in retirement order: the D-cache
  /// cycles of its data access (0 without one) shifted left by one, or'ed
  /// with 1 when the branch predictor missed it.
  std::vector<u32> insts;

  // The rest is filled only with more than one machine attached.

  /// One id per batch: the batch's transition, (process, the last pc of
  /// the stream's previous batch when that batch is the same process's,
  /// pc, n, flow), interned densely over the whole stream. The previous
  /// pc, not its line: way-memoization keeps a branch link per slot.
  std::vector<u32> ids;
  /// Each distinct id of the chunk, with the batches that carry it.
  struct Transition {
    u32 id;
    u32 count;
  };
  std::vector<Transition> histogram;
  /// The state of a process's reference scoreboard (every fetch one
  /// cycle) before some of its batches: every kReferenceInterval
  /// batches and at each batch whose process differs from the stream's
  /// previous batch. So the batches from a snapshot up to the next are
  /// all one process's, and the state before any batch is its nearest
  /// earlier snapshot stepped over them.
  static constexpr std::size_t kReferenceInterval = 8;
  struct Reference {
    u32 batch;  ///< index in batches
    u32 inst;   ///< index in insts of that batch's first instruction
    pipeline::ScoreboardState state;
  };
  std::vector<Reference> references;
};

/// One guest process: private architectural state plus per-process
/// accounting. The instruction side lives in each machine's FetchPath;
/// the data side (Memory, D-cache) is private — modelled as
/// interference-free so the co-run isolates the *fetch-path* switch
/// costs the paper's mechanism is sensitive to (DESIGN.md §12).
struct ProcessContext {
  ProcessContext(u32 asid, std::string name, const mem::Image& image,
                 mem::Memory& memory, const MachineConfig& config);

  u32 asid;
  std::string name;
  /// Private memory, holding the loaded image: the scheduler's own
  /// (addProcess) or the caller's (addProcessOn).
  mem::Memory& memory;
  Core core;
  CoreState state;
  /// Built when the run starts, for the smallest line of its machines.
  std::optional<BlockCache> blocks;
  cache::DataCache dcache;
  pipeline::BranchPredictor btb;
  /// Flow into this process's next fetch, preserved across slices.
  cache::FetchFlow flow = cache::FetchFlow::kSequential;
  // Per-process accounting: must equal the same workload's solo run.
  u64 instructions = 0;
  u64 retired_pc_hash = kFnvOffset;
  u64 dataflow_hash = kFnvOffset;
  /// Timed with every fetch costing one cycle, only while more than one
  /// machine is attached: what each machine's StallWindow follows.
  pipeline::Scoreboard reference;
};

/// Per-process slice of a finished co-run.
struct ProcessRunStats {
  std::string name;
  u32 asid = 0;
  u64 instructions = 0;
  u64 retired_pc_hash = 0;
  u64 dataflow_hash = 0;
  u64 cycles = 0;  ///< this process's timing-model cycles
  cache::CacheStats dcache;
  pipeline::BranchStats branches;
};

/// Everything a finished co-run produced on one machine. `combined` is
/// shaped exactly like a solo RunStats so the energy model prices it
/// unchanged: the shared fetch-path counters, summed per-process
/// D-cache/branch/cycle activity, and *interleaved* global hashes over
/// every retirement in execution order — a one-process co-run therefore
/// reproduces its solo RunStats bit for bit.
struct CoRunStats {
  RunStats combined;
  std::vector<ProcessRunStats> processes;
  u64 context_switches = 0;  ///< switches with an outgoing process
  u64 slices = 0;            ///< quantum slices dispatched
};

class GuestScheduler {
 public:
  /// @p machine configures the first machine's fetch path and
  /// scoreboards, and the architectural half every machine shares: the
  /// per-process D-caches and branch predictors, the instruction budget
  /// and the budget hook. @p sched sets the quantum and the first
  /// machine's TLB policy.
  GuestScheduler(const MachineConfig& machine, const SchedulerConfig& sched);
  ~GuestScheduler();

  /// Registers a guest (every driver cell's members): loads @p image
  /// into a private Memory the scheduler owns and returns the process's
  /// ASID (its index, from 0). @p wp_area_bytes is the process's WP
  /// limit on the first machine (page-aligned, clamped to the image; 0
  /// unless way-placement).
  u32 addProcess(const std::string& name, const mem::Image& image,
                 u32 wp_area_bytes = 0);

  /// Same, over caller-owned @p memory that already holds @p image
  /// (Image::loadInto) — Processor's contract. The scheduler neither
  /// loads nor owns it; it must outlive the scheduler.
  u32 addProcessOn(const std::string& name, const mem::Image& image,
                   mem::Memory& memory, u32 wp_area_bytes = 0);

  /// Attaches another machine to the run, after every addProcess: it
  /// consumes the same architectural stream through its own fetch path
  /// (@p machine's fetch config, switched under @p tlb_policy, with one
  /// WP limit per process in @p wp_area_bytes) and its own timing. Its
  /// D-cache, timing latencies, BTB size and instruction budget must
  /// equal the first machine's, and it carries no budget hook: those
  /// belong to the shared half. Returns the machine's index (from 1).
  u32 addMachine(const MachineConfig& machine,
                 cache::TlbSwitchPolicy tlb_policy,
                 std::vector<u32> wp_area_bytes);

  /// The process's private memory — callers of addProcess write
  /// workload inputs here and read outputs back after run().
  [[nodiscard]] mem::Memory& memoryOf(u32 asid);

  /// Runs every registered process to HALT under round-robin
  /// time-slicing, streaming the architectural half to every machine
  /// in RetireChunk-sized lockstep; returns one CoRunStats per machine,
  /// in machine order. Call once.
  std::vector<CoRunStats> runMachines();

  /// runMachines() for the first machine's stats.
  CoRunStats run();

  /// Machine @p machine's fetch path (0 = the constructor's).
  [[nodiscard]] cache::FetchPath& fetchPath(u32 machine = 0);
  [[nodiscard]] const MachineConfig& machine() const;

  /// Host thread CPU machine @p machine's half spent replaying the
  /// stream. Measured only when more than one machine is attached
  /// (0 otherwise): observability, never fed back.
  [[nodiscard]] double replaySeconds(u32 machine) const;

  /// How much of the stream machine @p machine timed itself: its stall
  /// windows and the instructions inside them. Both stay 0 for a lone
  /// machine, which times every instruction. Observability, never fed
  /// back.
  struct WindowStats {
    u64 windows = 0;
    u64 instructions = 0;
  };
  [[nodiscard]] WindowStats windowStats(u32 machine) const;

  /// How machine @p machine consumed the stream: the batches it priced
  /// from chunk histograms, and the chunks it replayed in order while
  /// memoizing. Both stay 0 for a lone machine and for one whose line
  /// fetch is inexact (fault hook, drowsy lines). Observability, never
  /// fed back.
  struct MemoStats {
    u64 priced_batches = 0;
    u64 learned_chunks = 0;
  };
  [[nodiscard]] MemoStats memoStats(u32 machine) const;

  /// Batches the stream retired, counted only when more than one
  /// machine shares it (0 otherwise). Observability, never fed back.
  [[nodiscard]] u64 batches() const { return batches_; }

 private:
  struct Machine;
  struct StreamTotals;
  class Transitions;

  /// First runnable process at or after @p from (round-robin order), or
  /// -1 when every process has halted.
  [[nodiscard]] int nextRunnable(u32 from) const;

  /// The retire loop: the architectural half fills each chunk (stepping
  /// the reference scoreboards when @p kShared) and every machine's half
  /// consumes it.
  template <bool kShared>
  StreamTotals retire(u32 line_bytes);

  /// A lone machine's half: replays @p chunk through its fetch path and
  /// one scoreboard per process.
  void replay(Machine& m, const RetireChunk& chunk);

  /// A shared machine's half: prices @p chunk from its histogram when
  /// the machine's memo covers it, else replays it through its fetch
  /// path (memoizing when its line fetch is exact). Either way it times
  /// only its stall windows.
  void replayShared(Machine& m, const RetireChunk& chunk);

  /// Prices @p chunk from its histogram and returns true when machine
  /// @p m learned every id of it at its current epoch; otherwise
  /// returns false having touched nothing.
  bool priceSteady(Machine& m, const RetireChunk& chunk);

  /// Steps machine @p m's stall window over batch @p bi of @p chunk,
  /// whose instruction words start at @p inst, with the fetch cycles in
  /// m.fetch_cycles; opens the window first when it is closed.
  void timeWindow(Machine& m, const RetireChunk& chunk, std::size_t bi,
                  const u32* inst);

  /// The state of batch @p bi's process's reference scoreboard before
  /// the batch, from the chunk's nearest earlier snapshot.
  [[nodiscard]] pipeline::ScoreboardState referenceAt(
      const RetireChunk& chunk, std::size_t bi) const;

  SchedulerConfig sched_;
  /// Memories addProcess allocated; declared before procs_ so they
  /// outlive the contexts that reference them.
  std::vector<std::unique_ptr<mem::Memory>> owned_memory_;
  /// The registered guests, indexed by ASID.
  std::vector<std::unique_ptr<ProcessContext>> procs_;
  /// The attached machines; the first is the constructor's.
  std::vector<std::unique_ptr<Machine>> machines_;
  u64 batches_ = 0;
  bool ran_ = false;
};

}  // namespace wp::sim
