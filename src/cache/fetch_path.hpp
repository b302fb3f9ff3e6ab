// The instruction-fetch path: way-hint bit + I-TLB + I-cache, wired for
// one of the three evaluated schemes.
//
//   kBaseline        — unmodified cache: every fetch is a full CAM search.
//   kWayPlacement    — the paper's scheme: way-hint predicts a
//                      way-placement access; the I-TLB way-placement bit
//                      resolves it; single-way search when correct; both
//                      mispredict cases modelled (lost saving / second
//                      full access costing one cycle and one full search).
//   kWayMemoization  — Ma et al.'s links; intra-line skip included.
//
// The intra-line skip (no tag check when fetching from the same line as
// the previous access, paper §4.2) applies to both optimized schemes and
// can be disabled for the ablation bench.
#pragma once

#include <array>
#include <bit>
#include <optional>

#include "cache/cam_cache.hpp"
#include "cache/drowsy.hpp"
#include "cache/tlb.hpp"
#include "cache/way_hint.hpp"
#include "cache/way_memo.hpp"

namespace wp::cache {

enum class Scheme : u8 {
  kBaseline,
  kWayPlacement,
  kWayMemoization,
  /// MRU way prediction (Inoue et al. [6]) — the other hardware
  /// alternative the paper's related work discusses: probe the set's
  /// most-recently-used way first; a mispredict costs a second access
  /// over the remaining W-1 ways plus a cycle.
  kWayPrediction,
};

[[nodiscard]] const char* schemeName(Scheme s);

/// How control arrived at the address being fetched. Way-memoization
/// links are indexed by this: sequential crossings use the sequential
/// link, direct taken branches the per-slot branch link, and indirect
/// jumps can never be linked.
enum class FetchFlow : u8 {
  kSequential,
  kTakenDirect,
  kTakenIndirect,
};

// kBaseline / kWayPlacement / kWayMemoization / kWayPrediction share the
// FetchPath plumbing; the per-fetch decision tree differs per scheme.
struct FetchPathConfig {
  CacheGeometry icache;
  u32 tlb_entries = 32;
  Scheme scheme = Scheme::kBaseline;
  u32 wp_area_bytes = 0;      ///< way-placement area (kWayPlacement only)
  bool intraline_skip = true; ///< §4.2 same-line optimisation
  /// Way-memoization link invalidation: false = conservative flash-clear
  /// on every refill (Ma et al.'s cheap hardware), true = precise
  /// per-target invalidation (generous ablation variant).
  bool wm_precise_invalidation = false;
  /// Drowsy-line window in accesses (0 = off). Orthogonal to the scheme
  /// choice, per the paper's related-work claim; waking a drowsy line
  /// costs a cycle and a little energy, tracked in drowsyStats().
  u32 drowsy_window = 0;
  u32 mem_latency_cycles = 50;
  u32 tlb_walk_cycles = 20;

  /// Validates every field (geometry legality, TLB capacity, WP-area
  /// alignment and scheme consistency), naming the offending field in
  /// the thrown SimError. FetchPath calls this at construction.
  void validate() const;
};

class FetchPath;

/// Observer invoked at the top of every fetch. The fault-injection layer
/// implements this to corrupt advisory state between fetches; attaching
/// a hook also arms the defensive paths (e.g. the way-memoization link
/// parity check) that silicon would need against real soft errors.
class FetchFaultHook {
 public:
  virtual ~FetchFaultHook() = default;
  virtual void onFetch(FetchPath& path) = 0;
};

class FetchPath {
 public:
  explicit FetchPath(const FetchPathConfig& config);

  /// Fetches the instruction at @p addr; returns the cycles consumed by
  /// the fetch (1 for a hit, plus miss/walk/mispredict penalties).
  u32 fetch(u32 addr, FetchFlow flow);

  /// Batched fetch of @p n_instructions consecutive instructions
  /// starting at @p addr, all within one cache line. Equivalent to
  /// fetch(addr, flow) followed by n-1 sequential fetch() calls — every
  /// counter in CacheStats/TlbStats/FetchStats moves by exactly the
  /// same amount — but the n-1 follow-ups are applied in closed form.
  /// When the batch re-enters the line the previous fetch left (and the
  /// closed form is exact), all n fetches are such follow-ups, because
  /// that fetch already made the line a one-cycle hit. Returns the
  /// cycles of the *first* fetch; each follow-up costs exactly one cycle
  /// (they hit the just-fetched line on its MRU TLB page). Batches of
  /// more than one instruction are only valid when
  /// batchedLineFetchExact() holds; otherwise this is a plain fetch.
  u32 fetchLine(u32 addr, FetchFlow flow, u32 n_instructions);

  /// True when fetchLine's closed form is exact: no fault hook (hooks
  /// observe and may corrupt state between individual fetches) and no
  /// drowsy controller (lines can fall drowsy mid-line between two
  /// sequential fetches). The retire loop checks this once per run and
  /// otherwise dispatches one-instruction batches, which fetchLine
  /// serves as a plain fetch().
  [[nodiscard]] bool batchedLineFetchExact() const {
    return fault_hook_ == nullptr && !drowsy_.enabled();
  }

  /// OS runtime policy (paper §4.1: the area can be adjusted "even
  /// during program execution"): installs a new way-placement area.
  /// Changing page attributes requires the OS to flush the I-TLB and
  /// invalidate the I-cache, which is modelled here; both costs show up
  /// in the subsequent cold misses. Only valid for kWayPlacement.
  void resizeWayPlacementArea(u32 bytes);

  /// Context switch: installs process @p asid's fetch context with its
  /// per-process way-placement area (@p wp_area_bytes; 0 and required
  /// so for non-way-placement schemes). The I-TLB follows @p policy
  /// (flush vs ASID tags, see Tlb::switchContext); the virtually-tagged
  /// I-cache is invalidated with the old address space, way-memoization
  /// links are flash-cleared with it (the per-switch invalidation
  /// storm, counted in linkFlashClears()), the way-hint bit and the
  /// way-prediction MRU are reset, and drowsy per-line state observes
  /// the flush (onCacheFlush, awake lines checked back to 0). The very
  /// first call merely installs the context — there is no outgoing
  /// process yet, so nothing is flushed and no storm is charged, which
  /// keeps a one-process co-run bit-identical to a solo run.
  void switchProcess(u32 asid, u32 wp_area_bytes, TlbSwitchPolicy policy);

  /// ASID whose context is installed (0 until the first switchProcess).
  [[nodiscard]] u32 currentAsid() const { return itlb_.currentAsid(); }

  [[nodiscard]] const CacheStats& cacheStats() const {
    return icache_.stats();
  }
  [[nodiscard]] const TlbStats& tlbStats() const { return itlb_.stats(); }
  [[nodiscard]] const FetchStats& fetchStats() const { return fetch_stats_; }
  [[nodiscard]] const FetchPathConfig& config() const { return config_; }
  [[nodiscard]] const CamCache& icache() const { return icache_; }

  /// Data-array area factor (1.0 except for way-memoization's links).
  [[nodiscard]] double dataAreaFactor() const;

  /// Counts squashed single-way probes (mispredict case 2); the energy
  /// model charges them like single-way searches.
  [[nodiscard]] u64 squashedProbes() const { return squashed_probes_; }

  /// Way-memoization flash-clear events (0 for other schemes).
  [[nodiscard]] u64 linkFlashClears() const;

  /// Every counter a fetch moves, flat: cacheStats(), tlbStats(),
  /// fetchStats() and squashedProbes(), in that order.
  static constexpr std::size_t kCounterWords = 32;
  using Counters = std::array<u64, kCounterWords>;
  [[nodiscard]] Counters counters() const {
    return std::bit_cast<Counters>(CounterRecord{
        icache_.stats(), itlb_.stats(), fetch_stats_, squashed_probes_});
  }

  /// Adds @p delta to every counter: counts that earlier fetches
  /// produced, re-applied by a caller that skips repeating them.
  void addCounters(const Counters& delta);

  /// Bumped by every change to the state fetches accumulate: an I-cache
  /// fill, an I-TLB install, a way-memoization link write or flash clear
  /// (links are invalidated only inside fills and flushes), a
  /// way-prediction MRU write, switchProcess and resizeWayPlacementArea.
  /// When batchedLineFetchExact() holds, a fetch reads nothing else but
  /// the previous fetch (its address, and whether there is one in this
  /// context), the way hint (the previous page's WP bit) and host-side
  /// search shortcuts, and hits change no replacement or TLB FIFO
  /// state. So at one epoch, a fetchLine from the same previous fetch
  /// with the same arguments moves every counter by the same amount and
  /// returns the same cycles.
  [[nodiscard]] u64 epoch() const { return epoch_; }

  /// Leaves the fetch path where fetches whose last was the
  /// instruction at @p last_addr left it, for a caller that applied
  /// their counters with addCounters at an unchanged epoch: the previous
  /// fetch, the way hint (that page's WP bit) and the I-TLB MRU shortcut,
  /// which a batch re-entering the line relies on. The page must be
  /// resident.
  void resumeAfter(u32 last_addr);

  /// Drowsy-line statistics (all zero when drowsy_window == 0).
  [[nodiscard]] const DrowsyStats& drowsyStats() const {
    return drowsy_.stats();
  }
  [[nodiscard]] u32 icacheLines() const { return drowsy_.totalLines(); }
  /// Lines the drowsy controller currently tracks awake (0 after any
  /// whole-cache invalidation, e.g. a WP-area resize).
  [[nodiscard]] u32 awakeDrowsyLines() const { return drowsy_.awakeLines(); }

  /// Registers @p hook to run before every fetch (nullptr detaches).
  void attachFaultHook(FetchFaultHook* hook) { fault_hook_ = hook; }
  [[nodiscard]] bool faultInjectionArmed() const {
    return fault_hook_ != nullptr;
  }

  /// Mutable handles to the advisory state a fault injector may corrupt.
  /// Everything reachable from here is a hint: flipping, clearing or
  /// scrambling it must never change the retired instruction stream.
  struct FaultSurface {
    WayHint& hint;
    Tlb& itlb;
    WayMemoizer* memo;      ///< null unless kWayMemoization
    std::vector<u32>& mru;  ///< empty unless kWayPrediction
  };
  [[nodiscard]] FaultSurface faultSurface() {
    return {hint_, itlb_, memo_.has_value() ? &*memo_ : nullptr, mru_way_};
  }

 private:
  /// The counters() layout.
  struct CounterRecord {
    CacheStats cache;
    TlbStats tlb;
    FetchStats fetch;
    u64 squashed_probes;
  };
  static_assert(sizeof(CounterRecord) == sizeof(Counters),
                "kCounterWords must count every fetch counter");

  [[nodiscard]] u32 missPenalty() const;
  /// icache_.fill, which changes the accumulated state (epoch()).
  u32 fill(u32 addr, bool way_placed);
  u32 fetchBaseline(u32 addr);
  u32 fetchWayPlacement(u32 addr, bool same_line, bool actual_wp);
  u32 fetchWayMemoization(u32 addr, FetchFlow flow, bool same_line);
  u32 fetchWayPrediction(u32 addr, bool same_line);

  FetchPathConfig config_;
  CamCache icache_;
  Tlb itlb_;
  WayHint hint_;
  std::optional<WayMemoizer> memo_;
  DrowsyCache drowsy_;
  std::vector<u32> mru_way_;  ///< per-set MRU, way prediction only
  FetchStats fetch_stats_;
  u64 squashed_probes_ = 0;
  FetchFaultHook* fault_hook_ = nullptr;
  u64 epoch_ = 0;

  bool last_valid_ = false;
  u32 last_addr_ = 0;
  /// True once switchProcess installed a context: the next switch has
  /// an outgoing process and must pay the flush costs.
  bool process_active_ = false;
};

}  // namespace wp::cache
