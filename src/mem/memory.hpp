// Flat physical memory and the address-space layout used by every guest
// program.
//
// Layout (matches the paper's assumption that the way-placement area is
// the *start of the binary*, which we load at address 0):
//   [kCodeBase,  kCodeBase + code size)   — text segment, page-aligned
//   [kDataBase,  kDataBase + data size)   — globals and workload buffers
//   [.., kStackTop)                       — downward-growing stack
//
// The page size is 1 KB: the paper requires way-placement areas as small
// as 1 KB and "a multiple of the memory page size", so the page must be
// <= 1 KB (ARM-family MMUs support 1 KB subpages).
//
// Each Memory is one private anonymous mapping: the kernel zero-fills a
// page on first touch, so resident memory is only the pages a guest uses.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "support/bitops.hpp"

namespace wp::mem {

inline constexpr u32 kPageBytes = 1024;
inline constexpr u32 kCodeBase = 0x0000'0000;
inline constexpr u32 kDataBase = 0x0010'0000;  // 1 MB
inline constexpr u32 kStackTop = 0x0080'0000;  // 8 MB
inline constexpr u32 kDefaultMemoryBytes = 0x0080'0000;

/// Byte-addressed physical memory with checked accessors. Words are
/// little-endian. Unaligned 32-bit accesses are rejected, matching the
/// alignment-checking behaviour of the modelled core.
class Memory {
 public:
  explicit Memory(std::size_t size_bytes = kDefaultMemoryBytes);
  ~Memory();
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] u8 load8(u32 addr) const;
  [[nodiscard]] u32 load32(u32 addr) const;
  void store8(u32 addr, u8 value);
  void store32(u32 addr, u32 value);

  /// Bulk copy into memory (used by the loader and input generators).
  void writeBlock(u32 addr, std::span<const u8> data);

  /// Bulk copy out of memory (used by output verification).
  [[nodiscard]] std::vector<u8> readBlock(u32 addr, std::size_t len) const;

 private:
  void checkRange(u32 addr, u32 len) const;
  std::size_t size_;
  u8* bytes_ = nullptr;
};

/// Virtual page number of an address.
[[nodiscard]] constexpr u32 pageOf(u32 addr) noexcept {
  return addr / kPageBytes;
}

}  // namespace wp::mem
