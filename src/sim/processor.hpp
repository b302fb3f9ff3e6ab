// The whole simulated processor: functional core + fetch path (way-hint,
// I-TLB, I-cache) + D-cache + timing model. This is the XTREM substitute
// the experiments run on.
//
// Processor is a facade over a one-process GuestScheduler running on
// the caller's memory (sim/scheduler.hpp holds the one retire loop):
// the quantum is the instruction budget, so a solo run is one slice and
// never switches, and the scheduler's first install is flush-free.
#pragma once

#include <functional>
#include <memory>

#include "cache/data_cache.hpp"
#include "cache/fetch_path.hpp"
#include "energy/energy_model.hpp"
#include "pipeline/timing.hpp"
#include "sim/core.hpp"
#include "support/fnv.hpp"

namespace wp::sim {

class GuestScheduler;

/// Host-side supervision hook: check(instructions) is invoked once per
/// RetireChunk, after the chunk's architectural half, with the exact
/// count retired so far. The hook observes only — it may throw SimError
/// to abort the run (the sweep supervisor's watchdog does) but never
/// feeds anything back into the machine, so a run that completes
/// retires a bit-identical instruction stream with or without a hook
/// installed.
struct BudgetHook {
  std::function<void(u64 instructions)> check;
};

struct MachineConfig {
  cache::FetchPathConfig fetch;   ///< I-cache geometry + scheme selection
  cache::DataCacheConfig dcache;
  pipeline::TimingConfig timing;
  u64 max_instructions = 4'000'000'000ULL;
  BudgetHook budget_hook;         ///< optional watchdog (empty = off)
};

/// Returns the baseline machine of Table 1 (32 KB 32-way 32 B caches,
/// 32-entry TLBs, 50-cycle memory) with the given scheme installed.
[[nodiscard]] MachineConfig baselineMachine(
    cache::Scheme scheme = cache::Scheme::kBaseline, u32 wp_area_bytes = 0);

/// Raw activity counts of one run; the energy model prices them.
struct RunStats {
  u64 instructions = 0;
  u64 cycles = 0;
  /// FNV-1a over every retired pc, in order — the fingerprint of the
  /// retired instruction stream. The fault suite's architectural-
  /// equivalence invariant: any run of the same binary and inputs must
  /// reproduce this hash exactly, no matter what advisory fetch state
  /// was corrupted along the way.
  u64 retired_pc_hash = kFnvOffset;
  /// FNV-1a over every data access (effective address + load/store
  /// kind), in order. Unlike retired_pc_hash this is layout-invariant:
  /// relinking under a different (even corrupt) profile legitimately
  /// changes pc values but must never change the data the program
  /// touches or produces.
  u64 dataflow_hash = kFnvOffset;
  cache::CacheStats icache;
  cache::CacheStats dcache;
  cache::TlbStats itlb;
  cache::FetchStats fetch;
  pipeline::BranchStats branches;
  u64 squashed_probes = 0;
  u64 link_flash_clears = 0;
  double icache_data_area_factor = 1.0;
  cache::DrowsyStats drowsy;
  u32 icache_lines = 0;

  [[nodiscard]] u64 memLineTransfers() const {
    return icache.line_fills + dcache.line_fills + dcache.writebacks;
  }
};

class Processor {
 public:
  /// The image must already be loaded into @p memory (Image::loadInto).
  Processor(const MachineConfig& config, const mem::Image& image,
            mem::Memory& memory);
  ~Processor();

  /// Runs from the image entry point until HALT; returns activity counts.
  /// Call once: the guest has mutated memory and warmed the caches.
  RunStats run();

  /// Prices a run with @p model, filling a RunEnergy breakdown.
  [[nodiscard]] static energy::RunEnergy price(
      const energy::EnergyModel& model, const MachineConfig& config,
      const RunStats& stats);

  [[nodiscard]] const MachineConfig& config() const;

  /// The fetch path, exposed so the driver can attach a fault injector
  /// (and tests can poke the fault surface directly).
  [[nodiscard]] cache::FetchPath& fetchPath();

 private:
  std::unique_ptr<GuestScheduler> sched_;
};

}  // namespace wp::sim
