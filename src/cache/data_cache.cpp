#include "cache/data_cache.hpp"

namespace wp::cache {

DataCache::DataCache(const DataCacheConfig& config)
    : config_(config), cache_(config.geometry) {}

u32 DataCache::missPenalty() const {
  return config_.mem_latency_cycles + config_.geometry.wordsPerLine();
}

u32 DataCache::load(u32 addr) {
  const LookupResult r = cache_.lookup(addr, LookupKind::kFull);
  cache_.countWordRead();
  if (r.hit) return 1;
  cache_.fill(addr, /*way_placed=*/false);
  return 1 + missPenalty();
}

u32 DataCache::store(u32 addr) {
  const LookupResult r = cache_.lookup(addr, LookupKind::kFull);
  u32 cycles = 1;
  u32 way = r.way;
  if (!r.hit) {
    way = cache_.fill(addr, /*way_placed=*/false);
    cycles += missPenalty();
  }
  cache_.countWordWrite();
  // The lookup (or fill) just told us the resident way; passing it
  // along lets markDirty skip a second residency search.
  cache_.markDirty(addr, way);
  return cycles;
}

}  // namespace wp::cache
