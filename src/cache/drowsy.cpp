#include "cache/drowsy.hpp"

#include <algorithm>

#include "support/ensure.hpp"

namespace wp::cache {

DrowsyCache::DrowsyCache(u32 sets, u32 ways, u32 window)
    : ways_(ways),
      window_(window),
      until_sweep_(window),
      awake_(static_cast<std::size_t>(sets) * ways, false) {}

bool DrowsyCache::access(u32 set, u32 way) {
  if (window_ == 0) return false;
  // Integrate leakage state over this tick (before any wake).
  ++stats_.ticks;
  stats_.awake_line_ticks += awake_count_;
  stats_.drowsy_line_ticks += awake_.size() - awake_count_;

  const std::size_t idx = static_cast<std::size_t>(set) * ways_ + way;
  WP_ENSURE(idx < awake_.size(), "drowsy access out of range");
  bool woke = false;
  if (!awake_[idx]) {
    awake_[idx] = true;
    ++awake_count_;
    ++stats_.wakeups;
    woke = true;
  }

  if (--until_sweep_ == 0) {
    // Global drowse sweep: a wired signal, effectively free.
    std::fill(awake_.begin(), awake_.end(), false);
    awake_count_ = 0;
    until_sweep_ = window_;
  }
  return woke;
}

void DrowsyCache::onCacheFlush() {
  // Internal consistency first: the cached count must agree with the
  // bitmap it summarizes, or the leakage integrals above were wrong.
  WP_ENSURE(static_cast<u32>(
                std::count(awake_.begin(), awake_.end(), true)) == awake_count_,
            "drowsy awake-line count disagrees with the per-line bitmap");
  std::fill(awake_.begin(), awake_.end(), false);
  awake_count_ = 0;
  // The global drowse sweep is a free-running wired countdown; a cache
  // flush does not reset it. Stats intentionally survive.
}

}  // namespace wp::cache
