#include "cache/way_memo.hpp"

#include <algorithm>

#include "support/ensure.hpp"

namespace wp::cache {

WayMemoizer::WayMemoizer(CamCache& cache, bool track_targets)
    : cache_(cache),
      num_sets_(cache.geometry().sets()),
      ways_(cache.geometry().ways),
      links_per_line_(cache.geometry().wordsPerLine() + 1) {
  WP_ENSURE(ways_ <= 0x10000,
            "way-memoization links hold at most 65536 ways");
  const std::size_t lines = static_cast<std::size_t>(num_sets_) * ways_;
  links_.resize(lines * links_per_line_);
  if (track_targets) {
    target_lines_.resize(links_.size());
    target_generations_.resize(links_.size());
  }
  generations_.assign(lines, 0);
  cache_.setEvictionListener(this);
}

std::size_t WayMemoizer::linkFor(u32 from_addr, CrossKind kind) const {
  const auto way = cache_.probe(from_addr);
  WP_ENSURE(way.has_value(), "link access on non-resident source line");
  const std::size_t first =
      static_cast<std::size_t>(
          lineIndex({cache_.setIndexOf(from_addr), *way})) *
      links_per_line_;
  if (kind == CrossKind::kSequential) return first;
  return first + 1 + cache_.geometry().slotOf(from_addr);
}

void WayMemoizer::validate(Link& link) {
  if (!valid(link)) ++valid_links_;
  link.stamp = epoch_;
}

void WayMemoizer::setTarget(std::size_t i, u32 target) {
  if (!tracksTargets()) return;
  target_lines_[i] = target;
  target_generations_[i] = generations_[target];
}

std::optional<u32> WayMemoizer::followLink(u32 from_addr, CrossKind kind) {
  ++cache_.mutableStats().link_reads;
  const std::size_t i = linkFor(from_addr, kind);
  if (valid(links_[i]) &&
      (!tracksTargets() ||
       target_generations_[i] == generations_[target_lines_[i]])) {
    ++cache_.mutableStats().linked_accesses;
    return links_[i].way;
  }
  return std::nullopt;
}

void WayMemoizer::recordLink(u32 from_addr, CrossKind kind, u32 to_addr,
                             u32 to_way) {
  const std::size_t i = linkFor(from_addr, kind);
  validate(links_[i]);
  links_[i].way = static_cast<u16>(to_way);
  setTarget(i, lineIndex({cache_.setIndexOf(to_addr), to_way}));
  ++cache_.mutableStats().link_writes;
}

void WayMemoizer::onEvict(LineId line) {
  // Links *to* this line die via the generation bump; links *in* it die
  // because the refill overwrites the link storage.
  const u32 index = lineIndex(line);
  ++generations_[index];
  Link* l = &links_[static_cast<std::size_t>(index) * links_per_line_];
  u64 cleared = 0;
  for (u32 i = 0; i < links_per_line_; ++i) {
    if (valid(l[i])) ++cleared;
    l[i] = Link{};
  }
  valid_links_ -= cleared;
  cache_.mutableStats().link_invalidations += cleared;
}

void WayMemoizer::flashClearLinks() {
  ++flash_clears_;
  cache_.mutableStats().link_invalidations += valid_links_;
  valid_links_ = 0;
  if (++epoch_ == 0) {
    // The stamps wrapped: clear them for real once every 65535 clears.
    for (Link& link : links_) link.stamp = 0;
    epoch_ = 1;
  }
}

u32 WayMemoizer::faultScrambleLinks(Rng& rng, u32 events) {
  u32 touched = 0;
  for (u32 e = 0; e < events; ++e) {
    const std::size_t line = rng.below(generations_.size());
    const std::size_t i = line * links_per_line_ + rng.below(links_per_line_);
    Link& link = links_[i];
    if (valid(link)) {
      link.way = static_cast<u16>(rng.below(ways_));
    } else {
      // A spuriously-raised valid bit with a random target; pin the
      // generation to the target's current one so the rotten link passes
      // the generation check and only the parity check can catch it.
      validate(link);
      link.way = static_cast<u16>(rng.below(ways_));
      const u32 set = static_cast<u32>(rng.below(num_sets_));
      setTarget(i, lineIndex({set, static_cast<u32>(rng.below(ways_))}));
    }
    ++touched;
  }
  return touched;
}

u32 WayMemoizer::linkBitsPerLine() const {
  const u32 bits_per_link = cache_.geometry().wayBits() + 1;  // way + valid
  return links_per_line_ * bits_per_link;
}

double WayMemoizer::dataAreaFactor() const {
  const double line_bits = cache_.geometry().line_bytes * 8.0;
  return (line_bits + linkBitsPerLine()) / line_bits;
}

}  // namespace wp::cache
