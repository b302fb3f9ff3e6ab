// 64-bit FNV-1a, the one hash behind every fingerprint in the tree: the
// simulator's equivalence hashes (retired pcs, data accesses), the
// record digests (image, stats, cell key) that name and verify store
// files, and the workload input seeds.
//
// Two forms share the constants. The byte form is textbook FNV-1a. The
// word form folds a whole 64-bit value in one step (xor, then multiply),
// which is cheaper per retired instruction; the equivalence hashes use
// it. Neither may change: store file names embed these digests and
// records carry the hashes, so a different value would orphan every
// existing store.
#pragma once

#include <cstddef>
#include <string_view>

#include "support/bitops.hpp"

namespace wp {

inline constexpr u64 kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr u64 kFnvPrime = 0x100000001b3ULL;

/// Folds one 64-bit word into @p h as a single FNV-1a step.
[[nodiscard]] constexpr u64 fnv1aWord(u64 h, u64 v) {
  return (h ^ v) * kFnvPrime;
}

/// Folds the bytes of @p bytes into @p h, one FNV-1a step per byte.
[[nodiscard]] constexpr u64 fnv1aBytes(u64 h, std::string_view bytes) {
  for (const char c : bytes) h = (h ^ static_cast<u8>(c)) * kFnvPrime;
  return h;
}

/// Byte form over raw memory (an object's representation).
[[nodiscard]] inline u64 fnv1aBytes(u64 h, const void* p, std::size_t n) {
  return fnv1aBytes(h, std::string_view(static_cast<const char*>(p), n));
}

/// FNV-1a of @p s from the standard offset basis.
[[nodiscard]] constexpr u64 fnv1a(std::string_view s) {
  return fnv1aBytes(kFnvOffset, s);
}

}  // namespace wp
