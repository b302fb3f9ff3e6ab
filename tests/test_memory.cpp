// Memory and image tests: byte/word accessors, endianness, alignment
// and range checking, demand paging, image loading.
#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>

#include "mem/image.hpp"
#include "mem/memory.hpp"

namespace wp::mem {
namespace {

TEST(Memory, WordRoundTripLittleEndian) {
  Memory m(64 * 1024);
  m.store32(0x100, 0xdeadbeefu);
  EXPECT_EQ(m.load32(0x100), 0xdeadbeefu);
  EXPECT_EQ(m.load8(0x100), 0xefu);
  EXPECT_EQ(m.load8(0x101), 0xbeu);
  EXPECT_EQ(m.load8(0x102), 0xadu);
  EXPECT_EQ(m.load8(0x103), 0xdeu);
}

TEST(Memory, ByteStores) {
  Memory m(4096);
  m.store8(0, 0x12);
  m.store8(1, 0x34);
  m.store8(2, 0x56);
  m.store8(3, 0x78);
  EXPECT_EQ(m.load32(0), 0x78563412u);
}

TEST(Memory, RejectsUnaligned) {
  Memory m(4096);
  EXPECT_THROW(m.load32(2), SimError);
  EXPECT_THROW(m.store32(1, 0), SimError);
}

TEST(Memory, RejectsOutOfRange) {
  Memory m(4096);
  EXPECT_THROW(m.load8(4096), SimError);
  EXPECT_THROW(m.load32(4094), SimError);
  EXPECT_THROW(m.store8(5000, 1), SimError);
}

TEST(Memory, BulkBlockIo) {
  Memory m(4096);
  const std::vector<u8> data = {1, 2, 3, 4, 5};
  m.writeBlock(100, data);
  EXPECT_EQ(m.readBlock(100, 5), data);
  EXPECT_THROW(m.writeBlock(4094, data), SimError);
}

/// This process's resident set in bytes (/proc/self/statm, field 2).
std::size_t residentBytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0, resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

TEST(Memory, UntouchedPagesCostNoResidentMemory) {
  const std::size_t before = residentBytes();
  Memory memories[16];  // 128 MB of guest address space
  for (Memory& m : memories) m.store32(kDataBase, 0xffffffffu);
  EXPECT_LT(residentBytes(), before + (4u << 20));
  EXPECT_EQ(memories[15].load32(kDataBase + 4), 0u);
}

TEST(Memory, PageOf) {
  EXPECT_EQ(pageOf(0), 0u);
  EXPECT_EQ(pageOf(kPageBytes - 1), 0u);
  EXPECT_EQ(pageOf(kPageBytes), 1u);
  EXPECT_EQ(pageOf(5 * kPageBytes + 7), 5u);
}

TEST(Image, LoadsCodeAndData) {
  Image img;
  img.code = {0x11, 0x22, 0x33, 0x44};
  img.data = {0xaa, 0xbb};
  Memory m;
  img.loadInto(m);
  EXPECT_EQ(m.load8(kCodeBase), 0x11);
  EXPECT_EQ(m.load8(kCodeBase + 3), 0x44);
  EXPECT_EQ(m.load8(kDataBase), 0xaa);
  EXPECT_EQ(m.load8(kDataBase + 1), 0xbb);
}

TEST(Image, RejectsOversizedCode) {
  Image img;
  img.code.assign(kDataBase - kCodeBase + 4, 0);
  Memory m;
  EXPECT_THROW(img.loadInto(m), SimError);
}

TEST(Memory, RequiresWholePages) {
  EXPECT_THROW(Memory(kPageBytes + 1), SimError);
}

}  // namespace
}  // namespace wp::mem
