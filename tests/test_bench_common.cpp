// Bench knob parsing: WP_BENCH_WORKLOADS either selects a list of
// distinct suite workloads or exits 1 naming the knob — a misparse must
// never look like a clean run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "bench_common.hpp"
#include "workloads/workload.hpp"

namespace wp {
namespace {

/// Sets an environment variable for the enclosing scope; restores the
/// previous value (or unsets) on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_old_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_old_ = false;
};

TEST(BenchWorkloads, EmptyValueSelectsTheFullSuite) {
  ScopedEnv env("WP_BENCH_WORKLOADS", "");
  EXPECT_EQ(bench::selectedWorkloads(), workloads::suiteNames());
}

TEST(BenchWorkloads, ListKeepsItsOrderAndSkipsEmptyItems) {
  ScopedEnv env("WP_BENCH_WORKLOADS", "sha,,crc,");
  EXPECT_EQ(bench::selectedWorkloads(),
            (std::vector<std::string>{"sha", "crc"}));
}

TEST(BenchWorkloadsDeathTest, CommaOnlyNamesNoWorkload) {
  ScopedEnv env("WP_BENCH_WORKLOADS", ",");
  EXPECT_EXIT((void)bench::selectedWorkloads(), testing::ExitedWithCode(1),
              "WP_BENCH_WORKLOADS=',' names no workload");
}

TEST(BenchWorkloadsDeathTest, DuplicateNameIsRejected) {
  ScopedEnv env("WP_BENCH_WORKLOADS", "crc,sha,crc");
  EXPECT_EXIT((void)bench::selectedWorkloads(), testing::ExitedWithCode(1),
              "WP_BENCH_WORKLOADS names workload 'crc' twice");
}

TEST(BenchWorkloadsDeathTest, UnknownNameListsTheValidOnes) {
  ScopedEnv env("WP_BENCH_WORKLOADS", "crc,crc32");
  EXPECT_EXIT((void)bench::selectedWorkloads(), testing::ExitedWithCode(1),
              "WP_BENCH_WORKLOADS names unknown workload 'crc32'; valid "
              "names are:.* sha");
}

}  // namespace
}  // namespace wp
