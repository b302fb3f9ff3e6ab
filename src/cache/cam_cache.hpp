// CAM-tag set-associative cache model (XScale-style).
//
// Each set is a fully-associative CAM sub-bank holding all its ways
// (Zhang et al., "Highly-associative caches for low-power processors").
// A *full* lookup precharges one match line per way and broadcasts the
// tag to all W comparators. A *single-way* lookup (way-placement access)
// precharges and compares exactly one way. A *no-tag* lookup (intra-line
// or link-directed access) touches the data array only.
//
// Replacement is round-robin per set, as in the XScale. Way-placed fills
// bypass round-robin and go to the way named by the address tag's low
// bits, so a later single-way lookup is guaranteed to find the line if it
// is resident at all.
#pragma once

#include <optional>
#include <vector>

#include "cache/geometry.hpp"
#include "cache/stats.hpp"

namespace wp::cache {

enum class LookupKind : u8 {
  kFull,       ///< search every way of the set
  kSingleWay,  ///< search only the way named by the address tag bits
  kNoTag,      ///< no search; caller asserts the line is resident
};

struct LookupResult {
  bool hit = false;
  u32 way = 0;
};

/// Identifies a resident line (used for eviction notifications).
struct LineId {
  u32 set = 0;
  u32 way = 0;
  friend bool operator==(const LineId&, const LineId&) = default;
};

class CamCache {
 public:
  explicit CamCache(const CacheGeometry& geometry);

  [[nodiscard]] const CacheGeometry& geometry() const { return geom_; }

  /// Performs a lookup, counting tag/data activity. For kSingleWay the
  /// searched way is geometry().wayPlacedWayOf(addr). For kNoTag the line
  /// must be resident (checked; a violation is a model bug).
  LookupResult lookup(u32 addr, LookupKind kind);

  /// Searches exactly one caller-chosen way (way prediction, Inoue et
  /// al. [6]): one match-line precharge, one comparison.
  LookupResult lookupOneWay(u32 addr, u32 way);

  /// Searches every way except @p excluded_way (the second access of a
  /// mispredicted way-predicted fetch): W-1 precharges and comparisons.
  LookupResult lookupAllButOne(u32 addr, u32 excluded_way);

  /// Side-effect-free residency probe (no counters touched).
  [[nodiscard]] std::optional<u32> probe(u32 addr) const;

  /// Brings the line containing @p addr into the cache. If @p way_placed,
  /// the victim way is the tag-named way; otherwise round-robin.
  /// Returns the way filled. Must only be called after a missing lookup.
  u32 fill(u32 addr, bool way_placed);

  /// Marks the line holding @p addr dirty (D-cache stores). Line must be
  /// resident.
  void markDirty(u32 addr);

  /// Same, for a caller that already knows the resident way from its
  /// lookup or fill — skips the residency search. @p way must be the
  /// way holding @p addr's line (checked).
  void markDirty(u32 addr, u32 way);

  /// Counts a data-array word read (instruction delivery / load data).
  void countWordRead() { ++stats_.data_word_reads; }

  /// Counts a data-array word write (store hit).
  void countWordWrite() { ++stats_.data_word_writes; }

  /// Invalidates every line but keeps the accumulated statistics — the
  /// OS cache-maintenance flush used when page attributes change.
  void flush();

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  CacheStats& mutableStats() { return stats_; }

  /// Line-eviction observer hook: the way-memoization layer registers
  /// itself to invalidate links that point at the evicted line.
  class EvictionListener {
   public:
    virtual ~EvictionListener() = default;
    virtual void onEvict(LineId line) = 0;
  };
  void setEvictionListener(EvictionListener* listener) {
    listener_ = listener;
  }

  /// Address of the line currently resident at @p line (valid lines only).
  [[nodiscard]] u32 residentLineAddr(LineId line) const;

  [[nodiscard]] bool lineValid(LineId line) const;

  // The geometry's setOf/tagOf helpers re-derive their shift amounts
  // (with pow-of-two validation and divisions) on every call; the model
  // performs one address split per simulated cache access, so these use
  // widths precomputed at construction. Same results as geometry().setOf
  // / geometry().tagOf.
  [[nodiscard]] u32 setIndexOf(u32 addr) const {
    return (addr >> offset_bits_) & set_mask_;
  }
  [[nodiscard]] u32 tagFieldOf(u32 addr) const { return addr >> tag_shift_; }

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    u32 tag = 0;
  };

  [[nodiscard]] Line& at(u32 set, u32 way);
  [[nodiscard]] const Line& at(u32 set, u32 way) const;

  /// The unique matching way of (set, tag), or ways if not resident.
  /// Host-side fast path: tries the set's last-hit way before scanning.
  /// Exact because fill() keeps tags unique within a set, so the search
  /// order cannot change which way (if any) matches.
  [[nodiscard]] u32 findWay(u32 set, u32 tag) const;

  CacheGeometry geom_;
  u32 num_sets_;
  u32 offset_bits_;                // log2(line_bytes)
  u32 set_mask_;                   // sets - 1
  u32 tag_shift_;                  // offset_bits_ + log2(sets)
  std::vector<Line> lines_;        // sets * ways, row-major by set
  std::vector<u32> round_robin_;   // next victim way per set
  /// Last way hit per set — a host-side search accelerator, not modelled
  /// state (the modelled CAM searches all ways in parallel regardless).
  mutable std::vector<u32> hot_way_;
  CacheStats stats_;
  EvictionListener* listener_ = nullptr;
};

}  // namespace wp::cache
