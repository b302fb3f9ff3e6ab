// Instruction TLB with the paper's one-bit-per-entry extension.
//
// The way-placement area is a multiple of the page size starting at the
// beginning of the binary; the OS sets a *way-placement bit* in each
// I-TLB entry when it installs the translation (paper §4.1). Our "OS" is
// the setWayPlacementLimit policy: pages whose start address is below the
// limit are way-placement pages.
//
// The TLB is fully associative with FIFO replacement (32 entries in the
// baseline machine, matching Table 1).
//
// Entries are ASID-tagged: a translation belongs to the process that
// installed it, and a lookup only matches entries of the current
// address-space. Solo runs never leave ASID 0, so the tag is invisible
// to them; the guest scheduler switches spaces via switchContext(),
// choosing between the two classic policies (flush everything, or keep
// foreign entries resident under their tags).
#pragma once

#include <vector>

#include "cache/stats.hpp"
#include "mem/memory.hpp"

namespace wp::cache {

/// What a context switch does to the I-TLB (DESIGN.md §12). The WP bit
/// is per-process OS state riding the translation, so either the whole
/// TLB is flushed with the address space, or entries stay resident but
/// are tagged with their owner's ASID and can only match it.
enum class TlbSwitchPolicy : u8 {
  kFlush,       ///< invalidate every entry on switch (untagged hardware)
  kAsidTagged,  ///< keep entries; matching requires the owning ASID
};

[[nodiscard]] const char* tlbSwitchPolicyName(TlbSwitchPolicy p);

class Tlb {
 public:
  explicit Tlb(u32 entries);

  struct Result {
    bool hit = false;
    bool way_placement_page = false;
  };

  /// Translates @p addr; on a miss the entry is installed (the walk cost
  /// is charged by the caller from stats().misses).
  Result access(u32 addr);

  /// Batched form of @p count repeat accesses to the page of @p addr,
  /// valid only directly after an access() to the same page: the MRU
  /// entry must still hold that translation, so every repeat is a hit
  /// and only the access counter moves. Used by FetchPath::fetchLine for
  /// intra-line sequential fetches (which never cross a page).
  Result accessRepeat(u32 addr, u64 count);

  /// OS policy: addresses below @p bytes lie in the way-placement area.
  /// The limit must be page-aligned. Changing it flushes the TLB, which
  /// is what an OS updating page attributes would require.
  void setWayPlacementLimit(u32 bytes);

  /// True if @p addr lies in the way-placement area (the OS view; the
  /// hardware only sees the bit after a TLB access).
  [[nodiscard]] bool inWayPlacementArea(u32 addr) const {
    return addr < wp_limit_;
  }

  /// Switches to process @p asid's address space: installs its
  /// way-placement limit (its page table's view of the WP area) and
  /// applies @p policy to the resident entries. Under kFlush every
  /// entry dies with the old space; under kAsidTagged they survive but
  /// can only match their owner. Either way the MRU shortcut is dropped
  /// — it may point at the outgoing process's translation.
  void switchContext(u32 asid, u32 wp_limit_bytes, TlbSwitchPolicy policy);

  [[nodiscard]] u32 currentAsid() const { return cur_asid_; }

  /// Points the MRU shortcut at the resident translation of @p addr's
  /// page, where a hit on it would leave it, without counting an access.
  /// The page must be resident. Used by FetchPath::resumeAfter.
  Result touch(u32 addr);

  [[nodiscard]] const TlbStats& stats() const { return stats_; }
  TlbStats& mutableStats() { return stats_; }

  /// Number of entry slots (the fault-injection surface).
  [[nodiscard]] u32 entryCount() const {
    return static_cast<u32>(entries_.size());
  }

  /// Soft-error hook: inverts the cached way-placement bit of entry
  /// @p index. Returns false when the slot holds no valid translation.
  /// The OS page table keeps the truth, so the next re-walk of the page
  /// heals the entry.
  bool faultFlipWpBit(u32 index);

  /// Soft-error hook: clears every cached way-placement bit (a burst
  /// upset). Returns the number of bits that were set.
  u32 faultClearWpBits();

 private:
  struct Entry {
    bool valid = false;
    u32 vpn = 0;
    u32 asid = 0;
    bool wp_bit = false;
  };

  /// Sentinel for "no MRU entry": every flush path parks mru_ here so a
  /// batched accessRepeat can never silently ride a dead translation.
  static constexpr u32 kNoMru = ~0u;

  std::vector<Entry> entries_;
  u32 mru_ = kNoMru;  ///< simulator fast path; no architectural effect
  u32 fifo_next_ = 0;
  u32 wp_limit_ = 0;
  u32 cur_asid_ = 0;
  TlbStats stats_;
};

}  // namespace wp::cache
