#include "cache/tlb.hpp"

#include "support/ensure.hpp"

namespace wp::cache {

const char* tlbSwitchPolicyName(TlbSwitchPolicy p) {
  switch (p) {
    case TlbSwitchPolicy::kFlush:
      return "flush";
    case TlbSwitchPolicy::kAsidTagged:
      return "asid";
  }
  WP_UNREACHABLE("bad TLB switch policy");
}

Tlb::Tlb(u32 entries) : entries_(entries) {
  WP_ENSURE(entries > 0, "TLB needs at least one entry");
}

Tlb::Result Tlb::access(u32 addr) {
  ++stats_.accesses;
  const u32 vpn = mem::pageOf(addr);
  // Fast path: consecutive fetches overwhelmingly hit the same page.
  // Purely a simulator shortcut — the search result is identical. The
  // sentinel guard keeps a flushed (or switched-away) MRU slot from
  // ever being consulted.
  if (mru_ != kNoMru) {
    const Entry& m = entries_[mru_];
    if (m.valid && m.vpn == vpn && m.asid == cur_asid_) {
      return {true, m.wp_bit};
    }
  }
  for (u32 i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    if (e.valid && e.vpn == vpn && e.asid == cur_asid_) {
      mru_ = i;
      return {true, e.wp_bit};
    }
  }
  // Miss: walk the page table (flat mapping) and install with FIFO
  // replacement. The OS writes the way-placement bit alongside the
  // existing permission bits (paper §4.1).
  ++stats_.misses;
  ++stats_.walks;
  Entry& victim = entries_[fifo_next_];
  mru_ = fifo_next_;
  fifo_next_ = (fifo_next_ + 1) % static_cast<u32>(entries_.size());
  victim.valid = true;
  victim.vpn = vpn;
  victim.asid = cur_asid_;
  victim.wp_bit = inWayPlacementArea(addr);
  return {false, victim.wp_bit};
}

Tlb::Result Tlb::accessRepeat(u32 addr, u64 count) {
  WP_ENSURE(mru_ != kNoMru,
            "accessRepeat directly after a TLB flush — the batch would "
            "ride a dead translation");
  const Entry& m = entries_[mru_];
  WP_ENSURE(m.valid && m.vpn == mem::pageOf(addr) && m.asid == cur_asid_,
            "accessRepeat requires the MRU entry to hold the page");
  stats_.accesses += count;
  return {true, m.wp_bit};
}

Tlb::Result Tlb::touch(u32 addr) {
  const u32 vpn = mem::pageOf(addr);
  for (u32 i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (e.valid && e.vpn == vpn && e.asid == cur_asid_) {
      mru_ = i;
      return {true, e.wp_bit};
    }
  }
  WP_UNREACHABLE("Tlb::touch of a page with no resident translation");
}

void Tlb::setWayPlacementLimit(u32 bytes) {
  WP_ENSURE(bytes % mem::kPageBytes == 0,
            "way-placement area must be a multiple of the page size");
  wp_limit_ = bytes;
  for (Entry& e : entries_) e.valid = false;
  fifo_next_ = 0;
  mru_ = kNoMru;
}

void Tlb::switchContext(u32 asid, u32 wp_limit_bytes,
                        TlbSwitchPolicy policy) {
  WP_ENSURE(wp_limit_bytes % mem::kPageBytes == 0,
            "per-process way-placement area must be a multiple of the "
            "page size");
  cur_asid_ = asid;
  wp_limit_ = wp_limit_bytes;
  if (policy == TlbSwitchPolicy::kFlush) {
    for (Entry& e : entries_) e.valid = false;
    fifo_next_ = 0;
  }
  // Under kAsidTagged the entries stay resident — their cached WP bits
  // were written from their owner's page table and can only match that
  // owner again. Either way the MRU slot may belong to the outgoing
  // process, so it is dropped.
  mru_ = kNoMru;
}

bool Tlb::faultFlipWpBit(u32 index) {
  WP_ENSURE(index < entries_.size(), "faultFlipWpBit: index out of range");
  Entry& e = entries_[index];
  if (!e.valid) return false;
  e.wp_bit = !e.wp_bit;
  return true;
}

u32 Tlb::faultClearWpBits() {
  u32 cleared = 0;
  for (Entry& e : entries_) {
    if (e.valid && e.wp_bit) {
      e.wp_bit = false;
      ++cleared;
    }
  }
  return cleared;
}

}  // namespace wp::cache
