// Unit tests for the support library: bit utilities, PRNG, statistics,
// the table printer, the thread pool and the strict number reader.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "support/bitops.hpp"
#include "support/number.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace wp {
namespace {

TEST(Bitops, IsPow2) {
  EXPECT_FALSE(isPow2(0));
  EXPECT_TRUE(isPow2(1));
  EXPECT_TRUE(isPow2(2));
  EXPECT_FALSE(isPow2(3));
  EXPECT_TRUE(isPow2(1ULL << 40));
  EXPECT_FALSE(isPow2((1ULL << 40) + 1));
}

TEST(Bitops, Log2Exact) {
  EXPECT_EQ(log2Exact(1), 0u);
  EXPECT_EQ(log2Exact(32), 5u);
  EXPECT_EQ(log2Exact(1ULL << 31), 31u);
  EXPECT_THROW(log2Exact(0), SimError);
  EXPECT_THROW(log2Exact(12), SimError);
}

class CeilLog2Test : public ::testing::TestWithParam<std::pair<u64, u32>> {};

TEST_P(CeilLog2Test, Matches) {
  EXPECT_EQ(ceilLog2(GetParam().first), GetParam().second);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CeilLog2Test,
    ::testing::Values(std::pair<u64, u32>{1, 0}, std::pair<u64, u32>{2, 1},
                      std::pair<u64, u32>{3, 2}, std::pair<u64, u32>{4, 2},
                      std::pair<u64, u32>{5, 3}, std::pair<u64, u32>{1024, 10},
                      std::pair<u64, u32>{1025, 11}));

TEST(Bitops, LowMask) {
  EXPECT_EQ(lowMask(0), 0u);
  EXPECT_EQ(lowMask(1), 1u);
  EXPECT_EQ(lowMask(16), 0xffffu);
  EXPECT_EQ(lowMask(64), ~u64{0});
}

TEST(Bitops, Bits) {
  EXPECT_EQ(bits(0xdeadbeef, 31, 24), 0xdeu);
  EXPECT_EQ(bits(0xdeadbeef, 7, 0), 0xefu);
  EXPECT_EQ(bits(0xdeadbeef, 15, 12), 0xbu);
  EXPECT_EQ(bits(0xffffffff, 31, 0), 0xffffffffu);
}

TEST(Bitops, SignExtend) {
  EXPECT_EQ(signExtend(0x8000, 16), -32768);
  EXPECT_EQ(signExtend(0x7fff, 16), 32767);
  EXPECT_EQ(signExtend(0xffffff, 24), -1);
  EXPECT_EQ(signExtend(0x0, 16), 0);
}

TEST(Bitops, AlignUpDown) {
  EXPECT_EQ(alignUp(0, 4), 0u);
  EXPECT_EQ(alignUp(1, 4), 4u);
  EXPECT_EQ(alignUp(4, 4), 4u);
  EXPECT_EQ(alignDown(7, 4), 4u);
  EXPECT_EQ(alignDown(8, 4), 8u);
  EXPECT_EQ(alignUp(1025, 1024), 2048u);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool differ = false;
  for (int i = 0; i < 10 && !differ; ++i) differ = a.next() != b.next();
  EXPECT_TRUE(differ);
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UnitInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Stats, MeanGeomean) {
  const double xs[] = {1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 7.0 / 3.0);
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(minOf(xs), 1.0);
  EXPECT_DOUBLE_EQ(maxOf(xs), 4.0);
}

TEST(Stats, EmptyThrows) {
  EXPECT_THROW(mean({}), SimError);
  EXPECT_THROW(geomean({}), SimError);
}

TEST(Stats, Accumulator) {
  Accumulator a;
  a.add(3.0);
  a.add(1.0);
  a.add(5.0);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
  EXPECT_EQ(a.count(), 3);
}

TEST(Table, RendersAligned) {
  TextTable t;
  t.header({"name", "value"});
  t.row({"a", "1"});
  t.row({"long-name", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, Fmt) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmtPct(0.503, 1), "50.3%");
}

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threadCount(), 4u);
  std::atomic<int> done{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPool, TasksCanSubmitTasks) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&pool, &done] {
      done.fetch_add(1, std::memory_order_relaxed);
      for (int j = 0; j < 4; ++j) {
        pool.submit(
            [&done] { done.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  pool.wait();
  EXPECT_EQ(done.load(), 20 * 5);
}

TEST(ThreadPool, WaitRethrowsFirstTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The error is consumed: the pool is reusable afterwards.
  std::atomic<int> done{0};
  pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.wait();
  EXPECT_EQ(done.load(), 1);
}

TEST(ThreadPool, ReusableAcrossWaitCycles) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait();
    EXPECT_EQ(done.load(), (round + 1) * 10);
  }
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threadCount(), ThreadPool::hardwareThreads());
  EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ParseUnsigned, AcceptsOnlyPlainDecimalOrOptInHex) {
  const struct {
    const char* text;
    std::optional<u64> decimal;  ///< expected without hex
    std::optional<u64> hex;      ///< expected with hex
  } kCases[] = {
      {"0", 0, 0},
      {"7", 7, 7},
      {"18446744073709551615", ~u64{0}, ~u64{0}},
      {"0x10", std::nullopt, 16},
      {"0xffffffffffffffff", std::nullopt, ~u64{0}},
      {"", std::nullopt, std::nullopt},
      {"-1", std::nullopt, std::nullopt},
      {"+1", std::nullopt, std::nullopt},
      {" 1", std::nullopt, std::nullopt},
      {"1 ", std::nullopt, std::nullopt},
      {"010", std::nullopt, std::nullopt},
      {"0x", std::nullopt, std::nullopt},
      {"0x-1", std::nullopt, std::nullopt},
      {"18446744073709551616", std::nullopt, std::nullopt},
      {"0x10000000000000000", std::nullopt, std::nullopt},
      {"1e3", std::nullopt, std::nullopt},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(parseUnsigned(c.text, /*hex=*/false), c.decimal) << c.text;
    EXPECT_EQ(parseUnsigned(c.text, /*hex=*/true), c.hex) << c.text;
  }
}

}  // namespace
}  // namespace wp
