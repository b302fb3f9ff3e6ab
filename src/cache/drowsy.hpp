// Drowsy-line leakage control (Flautner et al. [3] "drowsy caches" /
// Kaxiras et al. [10] "cache decay"), the leakage-oriented techniques
// the paper's related work calls *orthogonal* to way-placement. This
// model implements the "simple" drowsy policy: every `window` accesses,
// all lines drop into a state-preserving low-leakage mode; touching a
// drowsy line wakes it, costing one cycle and a little energy.
//
// Leakage bookkeeping is exact under the policy: the controller
// integrates the number of awake lines over access-ticks, which the
// energy model turns into joules.
#pragma once

#include <vector>

#include "support/bitops.hpp"

namespace wp::cache {

struct DrowsyStats {
  u64 wakeups = 0;        ///< drowsy-line accesses (1-cycle penalty each)
  u64 awake_line_ticks = 0;   ///< sum over ticks of awake-line count
  u64 drowsy_line_ticks = 0;  ///< sum over ticks of drowsy-line count
  u64 ticks = 0;          ///< accesses observed
};

class DrowsyCache {
 public:
  /// @p window: accesses between global drowse sweeps (0 disables).
  DrowsyCache(u32 sets, u32 ways, u32 window);

  /// Records an access to the (resident) line at (set, way).
  /// Returns true if the line was drowsy and had to be woken.
  bool access(u32 set, u32 way);

  [[nodiscard]] bool enabled() const { return window_ != 0; }
  [[nodiscard]] u32 totalLines() const {
    return static_cast<u32>(awake_.size());
  }
  [[nodiscard]] u32 awakeLines() const { return awake_count_; }
  [[nodiscard]] const DrowsyStats& stats() const { return stats_; }

  /// Models the drowsy side of a whole-cache invalidation (e.g. the
  /// flush an OS WP-area resize performs): every tracked line is
  /// invalid afterwards, so none may be tracked awake. The accumulated
  /// statistics survive: a flush changes which lines exist, not what
  /// the run already spent on wakeups and leakage.
  /// Postcondition (checked): awakeLines() == 0.
  void onCacheFlush();

 private:
  u32 ways_;
  u32 window_;
  u32 until_sweep_;
  u32 awake_count_ = 0;
  std::vector<bool> awake_;
  DrowsyStats stats_;
};

}  // namespace wp::cache
