#include "cache/cam_cache.hpp"

#include <algorithm>

#include "support/ensure.hpp"

namespace wp::cache {

namespace {
const CacheGeometry& validated(const CacheGeometry& g) {
  g.validate();
  return g;
}
}  // namespace

CamCache::CamCache(const CacheGeometry& geometry)
    : geom_(validated(geometry)),
      num_sets_(geometry.sets()),
      offset_bits_(geometry.offsetBits()),
      set_mask_(num_sets_ - 1),
      tag_shift_(geometry.offsetBits() + geometry.setBits()),
      lines_(static_cast<std::size_t>(num_sets_) * geometry.ways),
      round_robin_(num_sets_, 0),
      hot_way_(num_sets_, 0) {}

CamCache::Line& CamCache::at(u32 set, u32 way) {
  return lines_[static_cast<std::size_t>(set) * geom_.ways + way];
}

const CamCache::Line& CamCache::at(u32 set, u32 way) const {
  return lines_[static_cast<std::size_t>(set) * geom_.ways + way];
}

u32 CamCache::findWay(u32 set, u32 tag) const {
  const u32 hot = hot_way_[set];
  {
    const Line& line = at(set, hot);
    if (line.valid && line.tag == tag) return hot;
  }
  for (u32 w = 0; w < geom_.ways; ++w) {
    const Line& line = at(set, w);
    if (line.valid && line.tag == tag) {
      hot_way_[set] = w;
      return w;
    }
  }
  return geom_.ways;
}

LookupResult CamCache::lookup(u32 addr, LookupKind kind) {
  const u32 set = setIndexOf(addr);
  const u32 tag = tagFieldOf(addr);
  ++stats_.accesses;

  LookupResult result;
  switch (kind) {
    case LookupKind::kFull: {
      // Modelled cost is always a full parallel search (one precharge
      // and compare per way); the host-side findWay shortcut changes
      // nothing the model observes.
      ++stats_.full_lookups;
      stats_.matchline_precharges += geom_.ways;
      stats_.tag_compares += geom_.ways;
      const u32 w = findWay(set, tag);
      if (w != geom_.ways) result = {true, w};
      break;
    }
    case LookupKind::kSingleWay: {
      ++stats_.single_way_lookups;
      stats_.matchline_precharges += 1;
      stats_.tag_compares += 1;
      const u32 w = tag & (geom_.ways - 1);  // wayPlacedWayOf(addr)
      const Line& line = at(set, w);
      if (line.valid && line.tag == tag) {
        result = {true, w};
      }
      break;
    }
    case LookupKind::kNoTag: {
      ++stats_.no_tag_lookups;
      const auto way = probe(addr);
      WP_ENSURE(way.has_value(),
                "no-tag lookup on a non-resident line (model bug)");
      result = {true, *way};
      break;
    }
  }

  if (result.hit) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  return result;
}

LookupResult CamCache::lookupOneWay(u32 addr, u32 way) {
  WP_ENSURE(way < geom_.ways, "lookupOneWay: way out of range");
  const u32 set = setIndexOf(addr);
  const u32 tag = tagFieldOf(addr);
  ++stats_.accesses;
  ++stats_.single_way_lookups;
  stats_.matchline_precharges += 1;
  stats_.tag_compares += 1;
  LookupResult result;
  const Line& line = at(set, way);
  if (line.valid && line.tag == tag) result = {true, way};
  if (result.hit) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  return result;
}

LookupResult CamCache::lookupAllButOne(u32 addr, u32 excluded_way) {
  WP_ENSURE(excluded_way < geom_.ways, "lookupAllButOne: way out of range");
  const u32 set = setIndexOf(addr);
  const u32 tag = tagFieldOf(addr);
  ++stats_.accesses;
  ++stats_.partial_lookups;
  stats_.matchline_precharges += geom_.ways - 1;
  stats_.tag_compares += geom_.ways - 1;
  LookupResult result;
  for (u32 w = 0; w < geom_.ways; ++w) {
    if (w == excluded_way) continue;
    const Line& line = at(set, w);
    if (line.valid && line.tag == tag) {
      result = {true, w};
      break;
    }
  }
  if (result.hit) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  return result;
}

std::optional<u32> CamCache::probe(u32 addr) const {
  const u32 w = findWay(setIndexOf(addr), tagFieldOf(addr));
  if (w == geom_.ways) return std::nullopt;
  return w;
}

u32 CamCache::fill(u32 addr, bool way_placed) {
  const u32 set = setIndexOf(addr);
  const u32 tag = tagFieldOf(addr);
  const std::optional<u32> dup = probe(addr);

  u32 victim;
  if (way_placed) {
    victim = tag & (geom_.ways - 1);  // wayPlacedWayOf(addr)
    WP_ENSURE(!dup.has_value() || *dup != victim,
              "fill of an already-resident line");
    // A copy filled under a different placement decision (possible only
    // after way-placement-bit corruption or a mid-run area change) would
    // leave the CAM with two matching tags; the way-placed refill
    // invalidates the stale copy so lookups stay unambiguous.
    if (dup.has_value()) {
      Line& stale = at(set, *dup);
      if (stale.dirty) ++stats_.writebacks;
      if (listener_ != nullptr) listener_->onEvict({set, *dup});
      stale = Line{};
      ++stats_.duplicate_invalidations;
    }
  } else {
    WP_ENSURE(!dup.has_value(), "fill of an already-resident line");
    victim = round_robin_[set];
    round_robin_[set] = (round_robin_[set] + 1) % geom_.ways;
  }

  Line& line = at(set, victim);
  if (line.valid) {
    if (line.dirty) ++stats_.writebacks;
    if (listener_ != nullptr) listener_->onEvict({set, victim});
  }
  line.valid = true;
  line.dirty = false;
  line.tag = tag;
  ++stats_.line_fills;
  return victim;
}

void CamCache::markDirty(u32 addr) {
  const auto way = probe(addr);
  WP_ENSURE(way.has_value(), "markDirty on non-resident line");
  at(setIndexOf(addr), *way).dirty = true;
}

void CamCache::markDirty(u32 addr, u32 way) {
  WP_ENSURE(way < geom_.ways, "markDirty: way out of range");
  Line& line = at(setIndexOf(addr), way);
  WP_ENSURE(line.valid && line.tag == tagFieldOf(addr),
            "markDirty: way does not hold the addressed line");
  line.dirty = true;
}

void CamCache::flush() {
  for (u32 set = 0; set < num_sets_; ++set) {
    for (u32 way = 0; way < geom_.ways; ++way) {
      Line& line = at(set, way);
      if (line.valid && listener_ != nullptr) listener_->onEvict({set, way});
      line = Line{};
    }
  }
  std::fill(round_robin_.begin(), round_robin_.end(), 0u);
}

u32 CamCache::residentLineAddr(LineId id) const {
  const Line& line = at(id.set, id.way);
  WP_ENSURE(line.valid, "residentLineAddr of invalid line");
  return (line.tag << (geom_.offsetBits() + geom_.setBits())) |
         (id.set << geom_.offsetBits());
}

bool CamCache::lineValid(LineId id) const { return at(id.set, id.way).valid; }

}  // namespace wp::cache
