// Way-memoization (Ma et al., "Way memoization to reduce fetch energy in
// instruction caches", WCED at ISCA-28) — the state-of-the-art hardware
// competitor the paper compares against.
//
// Each cache line is augmented with *links* stored in the data side:
//   - one sequential link: the way holding the next sequential line, and
//   - one branch link per instruction slot: the way holding that
//     (direct) branch's target line.
// A 32 B line (8 instructions) therefore carries 9 links; with a valid
// bit plus log2(W) way bits each link is 6 bits for a 32-way cache —
// a 21 % overhead on the data array, exactly the figure in the paper.
//
// A fetch that crosses lines follows the link recorded in the line it
// is leaving; a valid link names the target way, so the tag search is
// skipped entirely. A link must die when its source line is refilled or
// its target line evicted. Two invalidation models are provided:
//
//   - conservative (default, matching the cheap hardware Ma et al.
//     assume): every refill flash-clears ALL link valid bits — a wired
//     clear is trivial in hardware, but each miss forces the whole link
//     web to be re-established;
//   - precise (ablation): per-line generation counters kill exactly the
//     stale links; this is simulator-only bookkeeping that is *generous*
//     to way-memoization.
#pragma once

#include <vector>

#include "cache/cam_cache.hpp"
#include "support/rng.hpp"

namespace wp::cache {

class WayMemoizer final : public CamCache::EvictionListener {
 public:
  /// Attaches to @p cache and registers for eviction notifications.
  /// With @p track_targets each link keeps its target line and that
  /// line's generation, so it dies when the target is evicted (the
  /// precise variant). Without, the owner flash-clears every link after
  /// any eviction and before the next followLink, as the conservative
  /// variant does on every refill and switch, so no generation it could
  /// compare would ever be stale.
  explicit WayMemoizer(CamCache& cache, bool track_targets = true);

  enum class CrossKind : u8 {
    kSequential,   ///< fell off the end of the line
    kBranchTaken,  ///< direct branch/call leaving the line
  };

  /// Consults the link for a fetch leaving the line of @p from_addr.
  /// Returns the memoized way if the link is valid, nullopt otherwise.
  /// Counts a link read either way (the link comes out with the data).
  [[nodiscard]] std::optional<u32> followLink(u32 from_addr, CrossKind kind);

  /// Records the way of the line containing @p to_addr into the link of
  /// @p from_addr's line after a tag-checked crossing resolved there.
  void recordLink(u32 from_addr, CrossKind kind, u32 to_addr, u32 to_way);

  /// Eviction callback: clears the evicted line's own links and bumps its
  /// generation so every link pointing at it becomes invalid.
  void onEvict(LineId line) override;

  /// Conservative invalidation: clears every link valid bit in the cache
  /// (called on each refill unless precise invalidation is selected).
  void flashClearLinks();

  /// Soft-error hook: corrupts up to @p events random links — rotting a
  /// valid link's way pointer or raising a dead link's valid bit with a
  /// random target. Unlike the advisory way-placement state, a followed
  /// bad link would fetch the wrong way, so the fetch path pairs this
  /// with a parity check that drops detected-corrupt links (counted in
  /// FetchStats::link_faults_dropped). Returns the number of links
  /// touched.
  u32 faultScrambleLinks(Rng& rng, u32 events);

  [[nodiscard]] u64 flashClears() const { return flash_clears_; }

  /// Extra data-array bits per line from the links.
  [[nodiscard]] u32 linkBitsPerLine() const;

  /// Data-array area scale factor, e.g. 1.21 for a 32 B/32-way line.
  [[nodiscard]] double dataAreaFactor() const;

 private:
  /// One link: a way pointer, valid while its stamp equals the current
  /// epoch, so a flash clear only starts a new epoch.
  struct Link {
    u16 way = 0;
    u16 stamp = 0;  ///< 0: never valid
  };

  [[nodiscard]] bool valid(const Link& link) const {
    return link.stamp == epoch_;
  }
  [[nodiscard]] bool tracksTargets() const { return !target_lines_.empty(); }
  [[nodiscard]] u32 lineIndex(LineId line) const {
    return line.set * ways_ + line.way;
  }
  /// Index in links_ of the link a fetch leaving @p from_addr's line
  /// reads. Each line holds its sequential link, then one branch link
  /// per instruction slot.
  [[nodiscard]] std::size_t linkFor(u32 from_addr, CrossKind kind) const;
  /// Marks @p link valid in the current epoch.
  void validate(Link& link);
  /// Points link @p i at line @p target as it is now.
  void setTarget(std::size_t i, u32 target);

  CamCache& cache_;
  u32 num_sets_;
  u32 ways_;
  u32 links_per_line_;            ///< wordsPerLine + 1
  std::vector<Link> links_;       ///< lines * links_per_line_, flat
  /// Each link's target line (set * ways + way) and its generation when
  /// the link was written; empty unless tracking targets.
  std::vector<u32> target_lines_;
  std::vector<u64> target_generations_;
  std::vector<u64> generations_;  ///< one per line
  u16 epoch_ = 1;
  u64 valid_links_ = 0;           ///< links valid in the current epoch
  u64 flash_clears_ = 0;
};

}  // namespace wp::cache
