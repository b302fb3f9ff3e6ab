// Event counters accumulated by the cache models. The energy model turns
// these counts into joules; keeping them separate makes the accounting
// auditable and unit-testable.
#pragma once

#include "support/bitops.hpp"

namespace wp::cache {

struct CacheStats {
  // Access-level counters.
  u64 accesses = 0;        ///< every lookup presented to the cache
  u64 hits = 0;
  u64 misses = 0;

  // Tag-side activity (the energy the paper attacks).
  u64 tag_compares = 0;         ///< CAM comparisons performed
  u64 matchline_precharges = 0; ///< match lines precharged
  u64 full_lookups = 0;         ///< all-way searches
  u64 single_way_lookups = 0;   ///< single-way searches (placed/predicted)
  u64 partial_lookups = 0;      ///< W-1-way searches (mispredict recovery)
  u64 no_tag_lookups = 0;       ///< intra-line / linked accesses, no search

  // Data-side activity.
  u64 data_word_reads = 0;   ///< one per instruction/word delivered
  u64 data_word_writes = 0;  ///< store hits (D-cache)
  u64 line_fills = 0;        ///< whole-line writes on refill
  u64 writebacks = 0;        ///< dirty-line evictions (D-cache)

  // Way-memoization link activity.
  u64 link_reads = 0;
  u64 link_writes = 0;
  u64 link_invalidations = 0;
  u64 linked_accesses = 0;  ///< lookups satisfied by a valid link

  // Robustness accounting: stale same-line copies invalidated by a
  // way-placed refill. Zero in fault-free runs — duplicates can only
  // arise after way-placement-bit corruption or mid-run area changes.
  u64 duplicate_invalidations = 0;

  CacheStats& operator+=(const CacheStats& o) {
    accesses += o.accesses;
    hits += o.hits;
    misses += o.misses;
    tag_compares += o.tag_compares;
    matchline_precharges += o.matchline_precharges;
    full_lookups += o.full_lookups;
    single_way_lookups += o.single_way_lookups;
    partial_lookups += o.partial_lookups;
    no_tag_lookups += o.no_tag_lookups;
    data_word_reads += o.data_word_reads;
    data_word_writes += o.data_word_writes;
    line_fills += o.line_fills;
    writebacks += o.writebacks;
    link_reads += o.link_reads;
    link_writes += o.link_writes;
    link_invalidations += o.link_invalidations;
    linked_accesses += o.linked_accesses;
    duplicate_invalidations += o.duplicate_invalidations;
    return *this;
  }
};

struct TlbStats {
  u64 accesses = 0;
  u64 misses = 0;
  u64 walks = 0;  ///< page-table walks (== misses; kept for clarity)
};

struct FetchStats {
  u64 fetches = 0;
  u64 sameline_skips = 0;
  u64 wp_single_way = 0;      ///< fetches served with a single-way search
  u64 hint_correct = 0;
  u64 hint_miss_lost_saving = 0;  ///< hint=normal but page was WP (case 1)
  u64 hint_miss_second_access = 0;  ///< hint=WP but page was not (case 2)
  u64 waypred_correct = 0;     ///< way prediction: MRU way hit
  u64 waypred_mispredict = 0;  ///< way prediction: second access needed
  u64 extra_cycles = 0;       ///< cycle penalty from second accesses
  /// Way-memoization links whose parity check caught a corrupted way
  /// pointer; the fetch degraded to a full search. Only non-zero under
  /// fault injection.
  u64 link_faults_dropped = 0;
};

}  // namespace wp::cache
