#include "mem/memory.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "support/ensure.hpp"

namespace wp::mem {

Memory::Memory(std::size_t size_bytes) : size_(size_bytes) {
  WP_ENSURE(size_bytes % kPageBytes == 0,
            "memory size must be a whole number of pages");
  void* p = ::mmap(nullptr, size_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  WP_ENSURE(p != MAP_FAILED,
            std::string("cannot map guest memory: ") + std::strerror(errno));
  // A huge page would make one touched byte cost 2 MB of resident memory.
  ::madvise(p, size_bytes, MADV_NOHUGEPAGE);
  bytes_ = static_cast<u8*>(p);
}

Memory::~Memory() { ::munmap(bytes_, size_); }

void Memory::checkRange(u32 addr, u32 len) const {
  WP_ENSURE(static_cast<std::size_t>(addr) + len <= size_,
            "memory access out of range");
}

u8 Memory::load8(u32 addr) const {
  checkRange(addr, 1);
  return bytes_[addr];
}

u32 Memory::load32(u32 addr) const {
  WP_ENSURE((addr & 3u) == 0, "unaligned 32-bit load");
  checkRange(addr, 4);
  u32 v = 0;
  std::memcpy(&v, bytes_ + addr, 4);
  return v;
}

void Memory::store8(u32 addr, u8 value) {
  checkRange(addr, 1);
  bytes_[addr] = value;
}

void Memory::store32(u32 addr, u32 value) {
  WP_ENSURE((addr & 3u) == 0, "unaligned 32-bit store");
  checkRange(addr, 4);
  std::memcpy(bytes_ + addr, &value, 4);
}

void Memory::writeBlock(u32 addr, std::span<const u8> data) {
  checkRange(addr, static_cast<u32>(data.size()));
  std::copy(data.begin(), data.end(), bytes_ + addr);
}

std::vector<u8> Memory::readBlock(u32 addr, std::size_t len) const {
  checkRange(addr, static_cast<u32>(len));
  return {bytes_ + addr, bytes_ + addr + len};
}

}  // namespace wp::mem
