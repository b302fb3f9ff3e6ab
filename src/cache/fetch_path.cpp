#include "cache/fetch_path.hpp"

#include "support/ensure.hpp"

namespace wp::cache {

const char* schemeName(Scheme s) {
  switch (s) {
    case Scheme::kBaseline:
      return "baseline";
    case Scheme::kWayPlacement:
      return "way-placement";
    case Scheme::kWayMemoization:
      return "way-memoization";
    case Scheme::kWayPrediction:
      return "way-prediction";
  }
  WP_UNREACHABLE("bad scheme");
}

void FetchPathConfig::validate() const {
  icache.validate();
  WP_ENSURE(tlb_entries > 0, "FetchPathConfig.tlb_entries must be at least 1");
  WP_ENSURE(wp_area_bytes % mem::kPageBytes == 0,
            "FetchPathConfig.wp_area_bytes (" + std::to_string(wp_area_bytes) +
                ") must be a multiple of the " +
                std::to_string(mem::kPageBytes) + " B page size");
  WP_ENSURE(scheme == Scheme::kWayPlacement || wp_area_bytes == 0,
            "FetchPathConfig.wp_area_bytes set but FetchPathConfig.scheme is " +
                std::string(schemeName(scheme)) + ", not way-placement");
}

namespace {
const FetchPathConfig& validated(const FetchPathConfig& c) {
  c.validate();
  return c;
}
}  // namespace

FetchPath::FetchPath(const FetchPathConfig& config)
    : config_(validated(config)),
      icache_(config.icache),
      itlb_(config.tlb_entries),
      drowsy_(config.icache.sets(), config.icache.ways,
              config.drowsy_window) {
  if (config_.scheme == Scheme::kWayMemoization) {
    memo_.emplace(icache_, config_.wm_precise_invalidation);
  }
  if (config_.scheme == Scheme::kWayPlacement) {
    itlb_.setWayPlacementLimit(config_.wp_area_bytes);
  }
  if (config_.scheme == Scheme::kWayPrediction) {
    mru_way_.assign(config_.icache.sets(), 0);
  }
}

void FetchPath::resizeWayPlacementArea(u32 bytes) {
  WP_ENSURE(config_.scheme == Scheme::kWayPlacement,
            "resizeWayPlacementArea on scheme '" +
                std::string(schemeName(config_.scheme)) +
                "' — only way-placement has a WP area");
  WP_ENSURE(bytes % mem::kPageBytes == 0,
            "resizeWayPlacementArea: " + std::to_string(bytes) +
                " is not a multiple of the " +
                std::to_string(mem::kPageBytes) + " B page size");
  config_.wp_area_bytes = bytes;
  ++epoch_;
  itlb_.setWayPlacementLimit(bytes);
  // Lines filled under the old policy may sit in ways the new policy's
  // single-way lookups would never probe (and a way-placed refill next
  // to a stale copy would give the CAM two matching tags), so the OS
  // invalidates the I-cache as part of the attribute change.
  icache_.flush();
  hint_.reset();
  // The flush invalidated every line, so per-line drowsy state now
  // describes lines that no longer exist; carrying it across the
  // resize would skip wake penalties on fresh fills and mis-price
  // leakage. Drop the line state (statistics survive) and assert the
  // invariant: a flushed cache tracks no awake line.
  drowsy_.onCacheFlush();
  WP_ENSURE(drowsy_.awakeLines() == 0,
            "I-cache flushed but the drowsy controller still tracks "
            "awake lines");
  last_valid_ = false;
}

void FetchPath::switchProcess(u32 asid, u32 wp_area_bytes,
                              TlbSwitchPolicy policy) {
  WP_ENSURE(wp_area_bytes % mem::kPageBytes == 0,
            "switchProcess: per-process WP area (" +
                std::to_string(wp_area_bytes) +
                ") must be a multiple of the " +
                std::to_string(mem::kPageBytes) + " B page size");
  WP_ENSURE(config_.scheme == Scheme::kWayPlacement || wp_area_bytes == 0,
            "switchProcess: WP area set but the scheme is '" +
                std::string(schemeName(config_.scheme)) +
                "', not way-placement");
  ++epoch_;
  itlb_.switchContext(asid, wp_area_bytes, policy);
  if (config_.scheme == Scheme::kWayPlacement) {
    // Keep the config in step with the installed area, exactly like
    // resizeWayPlacementArea: the config names the *current* OS policy.
    config_.wp_area_bytes = wp_area_bytes;
  }
  if (!process_active_) {
    // First install: there is no outgoing process, so no state is stale
    // and nothing is flushed — a one-process co-run must stay
    // bit-identical to the same run without a scheduler.
    process_active_ = true;
    return;
  }
  // The I-cache is virtually tagged: lines of the outgoing address
  // space would alias the incoming one's, so the OS invalidates it on
  // every switch (the classic VIVT cost; DESIGN.md §12 records why we
  // model flush rather than physical tags).
  icache_.flush();
  // Way-memoization links died with the lines (eviction listeners saw
  // the flush); the cheap hardware expresses that as one more wired
  // flash-clear — the per-switch invalidation storm the multiprog bench
  // measures, priced like every other flash-clear.
  if (memo_.has_value()) memo_->flashClearLinks();
  // The way-hint bit and the way-prediction MRU describe the outgoing
  // process's access pattern; both are advisory, both restart cold.
  hint_.reset();
  if (config_.scheme == Scheme::kWayPrediction) {
    mru_way_.assign(config_.icache.sets(), 0);
  }
  // Same drowsy invariant as a WP-area resize: a flushed cache tracks
  // no awake line, while the accumulated leakage statistics survive.
  drowsy_.onCacheFlush();
  WP_ENSURE(drowsy_.awakeLines() == 0,
            "I-cache flushed on context switch but the drowsy "
            "controller still tracks awake lines");
  last_valid_ = false;
}

u32 FetchPath::missPenalty() const {
  // 50-cycle memory latency plus one bus cycle per word of the line
  // over the 32-bit memory bus (Table 1). No critical-word-first
  // forwarding: the in-order model stalls the fetch until the whole
  // line has arrived, exactly like the D-cache's missPenalty(), so a
  // miss costs latency + wordsPerLine cycles. (DESIGN.md §5 records
  // why this is the Table-1-faithful choice.)
  return config_.mem_latency_cycles + config_.icache.wordsPerLine();
}

u32 FetchPath::fetch(u32 addr, FetchFlow flow) {
  WP_ENSURE((addr & 3u) == 0, "unaligned instruction fetch");
  if (fault_hook_ != nullptr) fault_hook_->onFetch(*this);
  ++fetch_stats_.fetches;

  const bool same_line =
      last_valid_ &&
      config_.icache.lineAddrOf(addr) == config_.icache.lineAddrOf(last_addr_);

  // The I-TLB is accessed in parallel with the cache on every fetch.
  const Tlb::Result tr = itlb_.access(addr);
  u32 cycles = 0;
  if (!tr.hit) {
    // The walk installed the translation.
    ++epoch_;
    cycles += config_.tlb_walk_cycles;
  }

  switch (config_.scheme) {
    case Scheme::kBaseline:
      cycles += fetchBaseline(addr);
      break;
    case Scheme::kWayPlacement:
      cycles += fetchWayPlacement(addr, same_line, tr.way_placement_page);
      break;
    case Scheme::kWayMemoization:
      cycles += fetchWayMemoization(addr, flow, same_line);
      break;
    case Scheme::kWayPrediction:
      cycles += fetchWayPrediction(addr, same_line);
      break;
  }

  // Every delivered instruction is one data-array word read.
  icache_.countWordRead();

  // Drowsy lines wake on first touch (one-cycle penalty). The fetched
  // line is resident after every path above.
  if (drowsy_.enabled()) {
    const auto way = icache_.probe(addr);
    WP_ENSURE(way.has_value(), "fetched line must be resident");
    if (drowsy_.access(icache_.setIndexOf(addr), *way)) {
      cycles += 1;
      ++fetch_stats_.extra_cycles;
    }
  }

  last_valid_ = true;
  last_addr_ = addr;
  return cycles;
}

u32 FetchPath::fetchLine(u32 addr, FetchFlow flow, u32 n_instructions) {
  WP_ENSURE(n_instructions >= 1, "fetchLine needs at least one instruction");
  const CacheGeometry& g = config_.icache;
  // A batch that re-enters the line the previous fetch left (a loop
  // back, or a batch resumed after a slice) needs no first fetch: that
  // fetch left the line resident, its page in the I-TLB MRU slot, the
  // way hint holding the page's bit and the way-prediction MRU on the
  // line, and a switch or resize clears last_valid_. So all n fetches
  // are same-line follow-ups.
  const bool reentry = last_valid_ && (addr & 3u) == 0 &&
                       batchedLineFetchExact() &&
                       g.lineAddrOf(addr) == g.lineAddrOf(last_addr_);
  u32 cycles = 1;
  u64 k = n_instructions;
  if (!reentry) {
    cycles = fetch(addr, flow);
    if (n_instructions == 1) return cycles;
    WP_ENSURE(batchedLineFetchExact(),
              "fetchLine batching requires no fault hook and no drowsy lines");
    k = n_instructions - 1;
  }
  const u32 last = addr + 4 * (n_instructions - 1);
  WP_ENSURE(g.lineAddrOf(addr) == g.lineAddrOf(last),
            "fetchLine span crosses a cache-line boundary");

  // The remaining k fetches are sequential, same-line and same-page:
  // the fetch before them left the line resident and its page in the
  // I-TLB MRU slot, so each follow-up is a one-cycle hit whose counter
  // deltas are known in closed form. Apply them k-fold.
  fetch_stats_.fetches += k;
  const Tlb::Result tr = itlb_.accessRepeat(addr, k);
  CacheStats& cs = icache_.mutableStats();
  // Every delivered instruction is one data-array word read
  // (countWordRead in the per-fetch path).
  cs.data_word_reads += k;

  const std::optional<u32> way = icache_.probe(addr);
  WP_ENSURE(way.has_value(), "fetchLine: line not resident after first fetch");

  const auto noTagHits = [&] {
    // k × lookup(kNoTag): no search, guaranteed hits.
    cs.accesses += k;
    cs.no_tag_lookups += k;
    cs.hits += k;
  };
  const auto fullHits = [&] {
    // k × lookup(kFull) that all hit.
    cs.accesses += k;
    cs.full_lookups += k;
    cs.matchline_precharges += k * config_.icache.ways;
    cs.tag_compares += k * config_.icache.ways;
    cs.hits += k;
  };
  const auto singleWayHits = [&] {
    // k × single-way lookups that all hit (kSingleWay / lookupOneWay).
    cs.accesses += k;
    cs.single_way_lookups += k;
    cs.matchline_precharges += k;
    cs.tag_compares += k;
    cs.hits += k;
  };

  switch (config_.scheme) {
    case Scheme::kBaseline:
      // The baseline has no intra-line optimisation: every follow-up is
      // a full CAM search that hits.
      fullHits();
      break;
    case Scheme::kWayPlacement:
      if (config_.intraline_skip) {
        fetch_stats_.sameline_skips += k;
        noTagHits();
      } else {
        // The first fetch updated the hint with this page's bit, so all
        // follow-ups (same page) predict correctly.
        fetch_stats_.hint_correct += k;
        if (tr.way_placement_page) {
          WP_ENSURE(*way == config_.icache.wayPlacedWayOf(addr),
                    "way-placed line resident in the wrong way");
          fetch_stats_.wp_single_way += k;
          singleWayHits();
        } else {
          fullHits();
        }
      }
      hint_.update(tr.way_placement_page);  // idempotent across the k repeats
      break;
    case Scheme::kWayMemoization:
      if (config_.intraline_skip) {
        fetch_stats_.sameline_skips += k;
        noTagHits();
      } else {
        // Same-line fetches are never linkable (links memoize line
        // crossings only), so each follow-up is a plain full search.
        fullHits();
      }
      break;
    case Scheme::kWayPrediction:
      if (config_.intraline_skip) {
        fetch_stats_.sameline_skips += k;
        noTagHits();
      } else {
        // The first fetch left the set's MRU pointing at our way, so
        // every follow-up is a correct one-way probe.
        WP_ENSURE(mru_way_[icache_.setIndexOf(addr)] == *way,
                  "way-prediction MRU does not point at the fetched line");
        fetch_stats_.waypred_correct += k;
        singleWayHits();
      }
      break;
  }

  last_addr_ = last;  // last_valid_ already set by an earlier fetch
  return cycles;
}

u32 FetchPath::fill(u32 addr, bool way_placed) {
  ++epoch_;
  return icache_.fill(addr, way_placed);
}

u32 FetchPath::fetchBaseline(u32 addr) {
  const LookupResult r = icache_.lookup(addr, LookupKind::kFull);
  if (r.hit) return 1;
  fill(addr, /*way_placed=*/false);
  return 1 + missPenalty();
}

u32 FetchPath::fetchWayPlacement(u32 addr, bool same_line, bool actual_wp) {
  // Intra-line skip: the previous fetch pinned this line resident, so no
  // tag check of any kind is needed.
  if (config_.intraline_skip && same_line) {
    ++fetch_stats_.sameline_skips;
    icache_.lookup(addr, LookupKind::kNoTag);
    hint_.update(actual_wp);
    return 1;
  }

  const bool hinted_wp = hint_.predict();
  u32 cycles = 1;
  bool hit;

  if (hinted_wp && actual_wp) {
    // Correct way-placement access: one tag, one match line.
    ++fetch_stats_.hint_correct;
    ++fetch_stats_.wp_single_way;
    hit = icache_.lookup(addr, LookupKind::kSingleWay).hit;
  } else if (hinted_wp && !actual_wp) {
    // Mispredict case 2 (§4.1): a single-way access was launched but the
    // I-TLB bit reveals a normal page — the access is squashed and the
    // cache re-read with all ways, costing a cycle and the wasted probe.
    ++fetch_stats_.hint_miss_second_access;
    ++squashed_probes_;
    icache_.mutableStats().matchline_precharges += 1;
    icache_.mutableStats().tag_compares += 1;
    cycles += 1;
    ++fetch_stats_.extra_cycles;
    hit = icache_.lookup(addr, LookupKind::kFull).hit;
  } else if (!hinted_wp && actual_wp) {
    // Mispredict case 1: we merely miss the energy saving.
    ++fetch_stats_.hint_miss_lost_saving;
    hit = icache_.lookup(addr, LookupKind::kFull).hit;
  } else {
    ++fetch_stats_.hint_correct;
    hit = icache_.lookup(addr, LookupKind::kFull).hit;
  }

  hint_.update(actual_wp);

  if (!hit) {
    // Way-placement pages always fill their tag-named way so single-way
    // lookups stay exact; other pages use round-robin.
    fill(addr, /*way_placed=*/actual_wp);
    cycles += missPenalty();
  }
  return cycles;
}

u32 FetchPath::fetchWayMemoization(u32 addr, FetchFlow flow, bool same_line) {
  if (config_.intraline_skip && same_line) {
    ++fetch_stats_.sameline_skips;
    icache_.lookup(addr, LookupKind::kNoTag);
    return 1;
  }

  // Links memoize *line crossings* only: a sequential link belongs to
  // the fall-off-the-end edge and a branch link to one taken edge.
  // Same-line fetches (possible when the intra-line skip is disabled)
  // must neither follow nor overwrite them.
  const bool linkable =
      !same_line && last_valid_ && flow != FetchFlow::kTakenIndirect;
  const WayMemoizer::CrossKind kind = flow == FetchFlow::kSequential
                                          ? WayMemoizer::CrossKind::kSequential
                                          : WayMemoizer::CrossKind::kBranchTaken;

  if (linkable) {
    std::optional<u32> way = memo_->followLink(last_addr_, kind);
    if (way.has_value() && fault_hook_ != nullptr) {
      // Under fault injection the links are parity-protected: a link
      // whose pointer rotted is detected and dropped, degrading this
      // fetch to a full search instead of reading the wrong way. This is
      // the defence silicon needs because — unlike the advisory
      // way-placement state — a blindly-followed bad link executes
      // wrong instructions.
      const std::optional<u32> actual = icache_.probe(addr);
      if (!actual.has_value() || *actual != *way) {
        ++fetch_stats_.link_faults_dropped;
        way.reset();
      }
    }
    if (way.has_value()) {
      // Linked access: no tag search at all. Real hardware fetches from
      // *way* blindly, so the invalidation machinery must guarantee the
      // link is exact — a mismatch here is a model bug that silicon
      // would express as executing the wrong instructions.
      const LookupResult r = icache_.lookup(addr, LookupKind::kNoTag);
      WP_ENSURE(r.way == *way,
                "way-memoization link points at the wrong way");
      return 1;
    }
  }

  const LookupResult r = icache_.lookup(addr, LookupKind::kFull);
  u32 cycles = 1;
  u32 way = r.way;
  if (!r.hit) {
    way = fill(addr, /*way_placed=*/false);
    if (!config_.wm_precise_invalidation) {
      ++epoch_;
      memo_->flashClearLinks();
    }
    cycles += missPenalty();
  }
  if (linkable && icache_.probe(last_addr_).has_value()) {
    // The fill may have evicted the source line; only a still-resident
    // line can hold the new link.
    ++epoch_;
    memo_->recordLink(last_addr_, kind, addr, way);
  }
  return cycles;
}

u32 FetchPath::fetchWayPrediction(u32 addr, bool same_line) {
  if (config_.intraline_skip && same_line) {
    ++fetch_stats_.sameline_skips;
    icache_.lookup(addr, LookupKind::kNoTag);
    return 1;
  }

  const u32 set = icache_.setIndexOf(addr);
  u32& mru = mru_way_[set];
  u32 cycles = 1;

  const LookupResult first = icache_.lookupOneWay(addr, mru);
  if (first.hit) {
    ++fetch_stats_.waypred_correct;
    return cycles;
  }

  // Mispredict: one extra cycle, search the remaining ways.
  ++fetch_stats_.waypred_mispredict;
  ++fetch_stats_.extra_cycles;
  cycles += 1;
  const LookupResult rest = icache_.lookupAllButOne(addr, mru);
  ++epoch_;  // the MRU moves
  if (rest.hit) {
    mru = rest.way;
    return cycles;
  }
  mru = fill(addr, /*way_placed=*/false);
  return cycles + missPenalty();
}

double FetchPath::dataAreaFactor() const {
  return memo_.has_value() ? memo_->dataAreaFactor() : 1.0;
}

u64 FetchPath::linkFlashClears() const {
  return memo_.has_value() ? memo_->flashClears() : 0;
}

void FetchPath::addCounters(const Counters& delta) {
  Counters sum = counters();
  for (std::size_t i = 0; i < kCounterWords; ++i) sum[i] += delta[i];
  const auto r = std::bit_cast<CounterRecord>(sum);
  icache_.mutableStats() = r.cache;
  itlb_.mutableStats() = r.tlb;
  fetch_stats_ = r.fetch;
  squashed_probes_ = r.squashed_probes;
}

void FetchPath::resumeAfter(u32 last_addr) {
  const Tlb::Result tr = itlb_.touch(last_addr);
  // Every way-placement fetch leaves the hint holding its page's bit;
  // the other schemes never move it.
  if (config_.scheme == Scheme::kWayPlacement) {
    hint_.update(tr.way_placement_page);
  }
  last_valid_ = true;
  last_addr_ = last_addr;
}

}  // namespace wp::cache
