// Round-robin guest scheduler: time-slices N guest processes over one
// shared instruction-fetch path. Its run() is the simulator's only
// retire loop — a solo Processor run is a one-process scheduler whose
// quantum is the instruction budget (one slice, no switch).
//
// This is the multiprogramming fix for the model's original
// flat-address-space assumption: each guest owns a ProcessContext — its
// own Memory, functional core, D-cache and timing model, its own
// per-process way-placement limit (its page table's view of the WP
// area) and its own equivalence-hash accumulators — while the
// *instruction* side (way-hint bit, I-TLB, I-cache, memo links,
// drowsy state) is the one shared FetchPath all processes contend on.
// A context switch pays the real switch-time costs (Tlb::switchContext
// per policy, VIVT I-cache flush, memo flash-clear, hint/MRU reset,
// drowsy onCacheFlush — see FetchPath::switchProcess), so the sharing
// can perturb energy and timing but never architecture: each process's
// retired_pc_hash/dataflow_hash must equal its solo run for any switch
// quantum, which the multiprog bench and test_multiprog enforce.
//
// The loop dispatches one FetchPath::fetchLine per batch: the
// BlockCache run at the pc, clipped at the slice boundary (so a batch
// never spans a context switch), the instruction budget and the
// budget-hook countdown. When the closed-form line fetch is inexact
// (fault hook attached, drowsy lines on) every batch is one
// instruction, which is a plain FetchPath::fetch per retirement.
#pragma once

#include <memory>
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
  /// What a switch does to the I-TLB (flush vs ASID tags).
  cache::TlbSwitchPolicy tlb_policy = cache::TlbSwitchPolicy::kFlush;
};

/// One guest process: private architectural state plus per-process
/// accounting. The instruction side lives in the scheduler's shared
/// FetchPath; the data side (Memory, D-cache) is private — modelled as
/// interference-free so the co-run isolates the *fetch-path* switch
/// costs the paper's mechanism is sensitive to (DESIGN.md §12).
struct ProcessContext {
  ProcessContext(u32 asid, std::string name, const mem::Image& image,
                 mem::Memory& memory, const MachineConfig& config);

  u32 asid;
  std::string name;
  /// Per-process way-placement area (clamped to this process's image by
  /// the driver); 0 for non-way-placement schemes.
  u32 wp_area_bytes = 0;
  /// Private memory, holding the loaded image: the scheduler's own
  /// (addProcess) or the caller's (addProcessOn).
  mem::Memory& memory;
  Core core;
  CoreState state;
  BlockCache blocks;
  cache::DataCache dcache;
  pipeline::TimingModel timing;
  /// Flow into this process's next fetch, preserved across slices.
  cache::FetchFlow flow = cache::FetchFlow::kSequential;
  // Per-process accounting: must equal the same workload's solo run.
  u64 instructions = 0;
  u64 retired_pc_hash = kFnvOffset;
  u64 dataflow_hash = kFnvOffset;
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

/// Everything a finished co-run produced. `combined` is shaped exactly
/// like a solo RunStats so the energy model prices it unchanged: the
/// shared fetch-path counters, summed per-process D-cache/branch/cycle
/// activity, and *interleaved* global hashes over every retirement in
/// execution order — a one-process co-run therefore reproduces its solo
/// RunStats bit for bit.
struct CoRunStats {
  RunStats combined;
  std::vector<ProcessRunStats> processes;
  u64 context_switches = 0;  ///< switches with an outgoing process
  u64 slices = 0;            ///< quantum slices dispatched
};

class GuestScheduler {
 public:
  /// @p machine configures the shared fetch path and the per-process
  /// D-caches/timing models; @p sched the quantum and TLB policy.
  GuestScheduler(const MachineConfig& machine, const SchedulerConfig& sched);

  /// Registers a guest (every driver cell's members): loads @p image
  /// into a private Memory the scheduler owns and returns the process's
  /// ASID (its index, from 0). @p wp_area_bytes is the per-process WP
  /// limit (page-aligned, clamped to the image; 0 unless way-placement).
  u32 addProcess(const std::string& name, const mem::Image& image,
                 u32 wp_area_bytes = 0);

  /// Same, over caller-owned @p memory that already holds @p image
  /// (Image::loadInto) — Processor's contract. The scheduler neither
  /// loads nor owns it; it must outlive the scheduler.
  u32 addProcessOn(const std::string& name, const mem::Image& image,
                   mem::Memory& memory, u32 wp_area_bytes = 0);

  /// The process's private memory — callers of addProcess write
  /// workload inputs here and read outputs back after run().
  [[nodiscard]] mem::Memory& memoryOf(u32 asid);

  /// Runs every registered process to HALT under round-robin
  /// time-slicing. Call once.
  CoRunStats run();

  [[nodiscard]] cache::FetchPath& fetchPath() { return fetch_; }
  [[nodiscard]] const MachineConfig& machine() const { return machine_; }
  [[nodiscard]] const SchedulerConfig& schedulerConfig() const {
    return sched_;
  }

 private:
  /// First runnable process at or after @p from (round-robin order), or
  /// -1 when every process has halted.
  [[nodiscard]] int nextRunnable(u32 from) const;

  MachineConfig machine_;
  SchedulerConfig sched_;
  cache::FetchPath fetch_;
  /// Memories addProcess allocated; declared before procs_ so they
  /// outlive the contexts that reference them.
  std::vector<std::unique_ptr<mem::Memory>> owned_memory_;
  /// The registered guests, indexed by ASID.
  std::vector<std::unique_ptr<ProcessContext>> procs_;
  bool ran_ = false;
};

}  // namespace wp::sim
