// Write-back, write-allocate data cache used by the core's load/store
// unit. Neither scheme modifies the D-cache; it exists so that total
// processor energy (the ED-product denominator) includes realistic
// data-side activity.
#pragma once

#include "cache/cam_cache.hpp"

namespace wp::cache {

struct DataCacheConfig {
  CacheGeometry geometry;
  u32 mem_latency_cycles = 50;
};

class DataCache {
 public:
  explicit DataCache(const DataCacheConfig& config);

  /// Load access: returns cycles (1 on hit, 1 + miss penalty otherwise).
  u32 load(u32 addr);

  /// Store access (write-allocate): returns cycles. Stores complete
  /// through a write buffer, so a hit costs one cycle.
  u32 store(u32 addr);

  [[nodiscard]] const CacheStats& stats() const { return cache_.stats(); }
  [[nodiscard]] const CamCache& cache() const { return cache_; }

 private:
  [[nodiscard]] u32 missPenalty() const;
  DataCacheConfig config_;
  CamCache cache_;
};

}  // namespace wp::cache
