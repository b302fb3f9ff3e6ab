#include "sim/processor.hpp"

#include "sim/scheduler.hpp"

namespace wp::sim {

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
                     mem::Memory& memory) {
  SchedulerConfig solo;
  solo.quantum = config.max_instructions;
  sched_ = std::make_unique<GuestScheduler>(config, solo);
  sched_->addProcessOn("solo", image, memory, config.fetch.wp_area_bytes);
}

Processor::~Processor() = default;

RunStats Processor::run() { return sched_->run().combined; }

const MachineConfig& Processor::config() const { return sched_->machine(); }

cache::FetchPath& Processor::fetchPath() { return sched_->fetchPath(); }

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
