#include "fault/fault.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "support/ensure.hpp"
#include "support/number.hpp"

namespace wp::fault {

namespace {

/// Resizes per resize-storm event and links rotted per scramble event.
/// Constants, not FaultSpec fields: cell keys carry no such value, so
/// a configurable one would be served a record priced under another.
constexpr u32 kStormResizes = 3;
constexpr u32 kLinksPerEvent = 4;

}  // namespace

const char* profileFaultName(ProfileFault f) {
  switch (f) {
    case ProfileFault::kNone:
      return "none";
    case ProfileFault::kTruncated:
      return "truncated";
    case ProfileFault::kScrambled:
      return "scrambled";
    case ProfileFault::kEmpty:
      return "empty";
    case ProfileFault::kBogusIds:
      return "bogus-ids";
  }
  WP_UNREACHABLE("bad profile fault");
}

const char* cellFaultName(CellFault f) {
  switch (f) {
    case CellFault::kNone:
      return "none";
    case CellFault::kTransient:
      return "transient";
    case CellFault::kPersistent:
      return "persistent";
    case CellFault::kHang:
      return "hang";
  }
  WP_UNREACHABLE("bad cell fault");
}

void injectCellFault(CellFault kind, u32 failures, unsigned attempt,
                     const char* origin, const DeadlineCheck& deadline) {
  switch (kind) {
    case CellFault::kNone:
      return;
    case CellFault::kTransient:
      if (attempt < failures) {
        throw SimError("injected transient cell fault (" +
                       std::string(origin) + "): attempt " +
                       std::to_string(attempt + 1) + " of " +
                       std::to_string(failures) +
                       " failing attempt(s) — a retry heals this cell");
      }
      return;
    case CellFault::kPersistent:
      throw SimError("injected persistent cell fault (" +
                     std::string(origin) +
                     "): every attempt fails — this cell must quarantine");
    case CellFault::kHang:
      // A wedged attempt retires no instruction, so the simulator never
      // reaches its budget hook; polling the same check here ends the
      // attempt exactly as the watchdog ends a runaway simulation.
      // Without a watchdog nothing ends it, which is why the supervisor
      // and the service refuse a hang without WP_CELL_TIMEOUT_MS.
      std::fprintf(stderr,
                   "[wayplace] injected hang cell fault (%s): attempt %u "
                   "blocks until its watchdog fires\n",
                   origin, attempt + 1);
      for (;;) {
        if (deadline) deadline(0);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
  }
  WP_UNREACHABLE("bad cell fault");
}

void injectCellFault(const FaultSpec& spec, unsigned attempt,
                     const DeadlineCheck& deadline) {
  injectCellFault(spec.cell_fault, spec.cell_fault_failures, attempt, "spec",
                  deadline);
}

bool parseCellFault(std::string_view spec, std::string_view knob,
                    CellFault& kind, u32& failures, std::string& error) {
  const auto colon = spec.find(':');
  const std::string_view name = spec.substr(0, colon);
  failures = 1;
  if (name == "persistent" && colon == std::string_view::npos) {
    kind = CellFault::kPersistent;
  } else if (name == "hang" && colon == std::string_view::npos) {
    kind = CellFault::kHang;
  } else if (name == "transient") {
    kind = CellFault::kTransient;
    if (colon == std::string_view::npos) return true;
    // Strict failure-count parse of the ":N" suffix.
    const std::optional<u64> v =
        parseUnsigned(spec.substr(colon + 1), /*hex=*/false);
    if (!v || *v == 0 || *v > 1000) {
      error = std::string(knob) + "='" + std::string(spec) +
              "' has a bad failure count (expected transient[:N] with N "
              "in [1, 1000])";
      return false;
    }
    failures = static_cast<u32>(*v);
  } else {
    error = std::string(knob) + "='" + std::string(spec) +
            "' is not a valid cell fault (expected 'transient[:N]', "
            "'persistent' or 'hang')";
    return false;
  }
  return true;
}

FaultSpec FaultSpec::allClasses(u64 period, u64 seed) {
  FaultSpec s;
  s.period = period;
  s.seed = seed;
  s.flip_way_hint = true;
  s.flip_tlb_wp_bit = true;
  s.clear_tlb_wp_bits = true;
  s.scramble_memo_links = true;
  s.scramble_mru = true;
  s.resize_storm = true;
  return s;
}

FaultInjector::FaultInjector(const FaultSpec& spec, u64 experiment_seed)
    : spec_(spec),
      // splitmix64 decorrelates nearby (seed, experiment_seed) pairs.
      rng_(spec.seed * 0x9e3779b97f4a7c15ULL ^
           experiment_seed * 0xbf58476d1ce4e5b9ULL ^ 0xfa017ULL) {
  WP_ENSURE(spec.period > 0, "FaultSpec.period must be non-zero to inject");
}

void FaultInjector::attach(cache::FetchPath& path) {
  original_area_ = path.config().wp_area_bytes;
  path.attachFaultHook(this);
}

void FaultInjector::onFetch(cache::FetchPath& path) {
  ++fetches_;
  if (fetches_ % spec_.period == 0) injectOne(path);
}

void FaultInjector::injectOne(cache::FetchPath& path) {
  const cache::FetchPath::FaultSurface s = path.faultSurface();
  const bool wp = path.config().scheme == cache::Scheme::kWayPlacement;

  enum Class : u8 {
    kHintFlip,
    kTlbFlip,
    kTlbClear,
    kLinkScramble,
    kMruScramble,
    kResizeStorm,
  };
  std::array<Class, 6> applicable{};
  std::size_t n = 0;
  if (spec_.flip_way_hint && wp) applicable[n++] = kHintFlip;
  if (spec_.flip_tlb_wp_bit && wp) applicable[n++] = kTlbFlip;
  if (spec_.clear_tlb_wp_bits && wp) applicable[n++] = kTlbClear;
  if (spec_.scramble_memo_links && s.memo != nullptr) {
    applicable[n++] = kLinkScramble;
  }
  if (spec_.scramble_mru && !s.mru.empty()) applicable[n++] = kMruScramble;
  if (spec_.resize_storm && wp) applicable[n++] = kResizeStorm;
  if (n == 0) return;

  ++stats_.events;
  switch (applicable[rng_.below(n)]) {
    case kHintFlip:
      s.hint.flip();
      ++stats_.hint_flips;
      break;
    case kTlbFlip:
      if (s.itlb.faultFlipWpBit(static_cast<u32>(
              rng_.below(s.itlb.entryCount())))) {
        ++stats_.tlb_bit_flips;
      }
      break;
    case kTlbClear:
      stats_.tlb_bits_cleared += s.itlb.faultClearWpBits();
      break;
    case kLinkScramble:
      stats_.links_scrambled +=
          s.memo->faultScrambleLinks(rng_, kLinksPerEvent);
      break;
    case kMruScramble: {
      const u32 ways = path.config().icache.ways;
      s.mru[rng_.below(s.mru.size())] = static_cast<u32>(rng_.below(ways));
      ++stats_.mru_scrambles;
      break;
    }
    case kResizeStorm: {
      // Spurious OS policy churn: a burst of bogus page-aligned areas,
      // then the configured area is restored. Every resize flushes the
      // I-TLB and I-cache, so the cost shows up as cold misses only.
      for (u32 i = 0; i < kStormResizes; ++i) {
        const u32 pages = 1 + static_cast<u32>(rng_.below(32));
        path.resizeWayPlacementArea(pages * mem::kPageBytes);
        ++stats_.resizes;
      }
      path.resizeWayPlacementArea(original_area_);
      ++stats_.resizes;
      break;
    }
  }
}

void corruptProfile(profile::ProfileResult& prof, ProfileFault kind,
                    Rng& rng) {
  switch (kind) {
    case ProfileFault::kNone:
      return;
    case ProfileFault::kTruncated: {
      // Keep the first half of the dump, as if collection was cut short.
      const std::size_t keep = prof.block_counts.size() / 2;
      auto it = prof.block_counts.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(keep));
      prof.block_counts.erase(it, prof.block_counts.end());
      return;
    }
    case ProfileFault::kScrambled: {
      // Permute the counts across the recorded blocks: every id stays
      // legal, so validation cannot catch this — the layout pass simply
      // optimises for the wrong hot set.
      std::vector<u64> counts;
      counts.reserve(prof.block_counts.size());
      for (const auto& [id, c] : prof.block_counts) counts.push_back(c);
      for (std::size_t i = counts.size(); i > 1; --i) {
        std::swap(counts[i - 1], counts[rng.below(i)]);
      }
      std::size_t i = 0;
      for (auto& [id, c] : prof.block_counts) c = counts[i++];
      return;
    }
    case ProfileFault::kEmpty:
      prof.block_counts.clear();
      return;
    case ProfileFault::kBogusIds: {
      const u32 base = prof.block_counts.empty()
                           ? 1000u
                           : prof.block_counts.rbegin()->first + 1;
      for (u32 i = 0; i < 3; ++i) {
        prof.block_counts[base + static_cast<u32>(rng.below(1000))] =
            1 + rng.below(1 << 20);
      }
      return;
    }
  }
  WP_UNREACHABLE("bad profile fault");
}

}  // namespace wp::fault
