// Tests for the offline store integrity checker (driver/store_fsck.hpp
// + the wp_store_fsck tool): flag parsing, a healthy round trip against
// a real ResultStore, detection of torn/tampered/misfiled records,
// staging-file litter, and the two safety rails — live writers' staging
// files and foreign files (a lock file an older store left included)
// are never touched, even under --remove.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "driver/result_store.hpp"
#include "driver/store_fsck.hpp"
#include "support/metrics.hpp"

namespace wp {
namespace {

/// An empty path under the test tempdir (anything there from a previous
/// run is removed first).
std::string freshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  if (system(("rm -rf '" + dir + "'").c_str()) != 0) ADD_FAILURE();
  return dir;
}

driver::RunResult fakeResult() {
  driver::RunResult r;
  r.stats.instructions = 1111;
  r.stats.cycles = 2222;
  r.output = {0xaa, 0x55};
  r.layout_strategy = "original";
  r.simulate_seconds = 0.125;
  return r;
}

/// A store directory holding one verified record; returns its path.
std::string storeWithOneRecord(const std::string& dir, std::string* record,
                               MetricsRegistry& metrics) {
  driver::ResultStore::Config config;
  config.dir = dir;
  driver::ResultStore store(config, 7, metrics, nullptr);
  driver::ResultStore::Outcome out = store.open("crc/test-cell", 0x1234);
  EXPECT_FALSE(out.record.has_value());
  store.put(out.lease, "crc/test-cell", 0x1234, fakeResult(), 0.5);
  if (record != nullptr) *record = store.recordPathFor("crc/test-cell", 0x1234);
  return dir;
}

void writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

driver::FsckReport runFsck(const std::string& dir, bool remove = false,
                           std::string* output = nullptr) {
  driver::FsckOptions options;
  options.dir = dir;
  options.remove = remove;
  options.verbose = true;
  std::ostringstream os;
  const driver::FsckReport report = driver::fsckStore(options, os);
  if (output != nullptr) *output = os.str();
  return report;
}

// ---------------------------------------------------------------------
// Flag parsing: never exits, reports exactly what is wrong.

TEST(FsckArgs, ParsesFlagsAndDirectory) {
  driver::FsckOptions options;
  std::string error;
  {
    const char* argv[] = {"wp_store_fsck", "/some/dir"};
    ASSERT_TRUE(driver::parseFsckArgs(2, argv, options, error)) << error;
    EXPECT_EQ(options.dir, "/some/dir");
    EXPECT_FALSE(options.remove);
    EXPECT_FALSE(options.verbose);
  }
  {
    const char* argv[] = {"wp_store_fsck", "--remove", "--verbose", "d"};
    ASSERT_TRUE(driver::parseFsckArgs(4, argv, options, error)) << error;
    EXPECT_EQ(options.dir, "d");
    EXPECT_TRUE(options.remove);
    EXPECT_TRUE(options.verbose);
  }
  {
    // Flag order is free: the directory may come first.
    const char* argv[] = {"wp_store_fsck", "d", "--remove"};
    ASSERT_TRUE(driver::parseFsckArgs(3, argv, options, error)) << error;
    EXPECT_EQ(options.dir, "d");
    EXPECT_TRUE(options.remove);
  }
}

TEST(FsckArgs, RejectsBadUsageNamingTheProblem) {
  driver::FsckOptions options;
  std::string error;
  {
    const char* argv[] = {"wp_store_fsck"};
    EXPECT_FALSE(driver::parseFsckArgs(1, argv, options, error));
    EXPECT_NE(error.find("missing store directory"), std::string::npos);
  }
  {
    const char* argv[] = {"wp_store_fsck", "--bogus", "d"};
    EXPECT_FALSE(driver::parseFsckArgs(3, argv, options, error));
    EXPECT_NE(error.find("--bogus"), std::string::npos);
  }
  {
    const char* argv[] = {"wp_store_fsck", "a", "b"};
    EXPECT_FALSE(driver::parseFsckArgs(3, argv, options, error));
    EXPECT_NE(error.find("more than one"), std::string::npos);
  }
}

// ---------------------------------------------------------------------
// Classification against a real store.

TEST(FsckStore, MissingDirectoryIsNotOk) {
  const driver::FsckReport report = runFsck(freshDir("fsck_nodir"));
  EXPECT_FALSE(report.dir_ok);
  EXPECT_FALSE(report.clean());
}

TEST(FsckStore, HealthyStoreIsClean) {
  MetricsRegistry metrics;
  const std::string dir =
      storeWithOneRecord(freshDir("fsck_ok"), nullptr, metrics);
  std::string output;
  const driver::FsckReport report = runFsck(dir, false, &output);
  EXPECT_TRUE(report.dir_ok);
  EXPECT_EQ(report.healthy, 1u) << output;
  EXPECT_TRUE(report.clean()) << output;
  EXPECT_NE(output.find("OK"), std::string::npos);
}

TEST(FsckStore, TornAndTamperedRecordsAreDamagedAndRemovable) {
  MetricsRegistry metrics;
  std::string record;
  const std::string dir =
      storeWithOneRecord(freshDir("fsck_torn"), &record, metrics);

  // Truncate mid-record, as a crash during a non-atomic write would.
  std::ifstream in(record);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 40u);
  writeFile(record, bytes.substr(0, 40));

  std::string output;
  driver::FsckReport report = runFsck(dir, false, &output);
  EXPECT_EQ(report.damaged, 1u) << output;
  EXPECT_FALSE(report.clean());

  // A record filed under the wrong identity (here: one flipped image-
  // digest nibble) is damaged too, even though its bytes verify.
  writeFile(record, bytes);
  std::string misfiled = record;  // flip the digest's last hex digit
  misfiled[misfiled.size() - 5] =
      record[record.size() - 5] == '0' ? '1' : '0';
  ASSERT_EQ(::rename(record.c_str(), misfiled.c_str()), 0);
  report = runFsck(dir, false, &output);
  EXPECT_EQ(report.damaged, 1u) << output;
  EXPECT_NE(output.find("image digest"), std::string::npos) << output;

  // --remove deletes exactly the damaged record and leaves a clean dir.
  report = runFsck(dir, true, &output);
  EXPECT_EQ(report.removed, 1u) << output;
  report = runFsck(dir, false, &output);
  EXPECT_TRUE(report.clean()) << output;
  EXPECT_EQ(report.healthy, 0u);
}

TEST(FsckStore, StagingLitterIsJudgedByItsWriter) {
  MetricsRegistry metrics;
  const std::string dir =
      storeWithOneRecord(freshDir("fsck_tmp"), nullptr, metrics);
  const std::string pid = std::to_string(static_cast<long>(::getpid()));
  writeFile(dir + "/x.rec.tmp.999999999", "half-written");  // writer gone
  writeFile(dir + "/y.rec.tmp." + pid, "in flight");        // that's us

  std::string output;
  driver::FsckReport report = runFsck(dir, false, &output);
  EXPECT_EQ(report.stale_tmp, 1u) << output;
  EXPECT_EQ(report.live_tmp, 1u) << output;

  report = runFsck(dir, true, &output);
  EXPECT_EQ(report.removed, 1u);
  EXPECT_EQ(::access((dir + "/y.rec.tmp." + pid).c_str(), F_OK), 0);
}

TEST(FsckStore, ForeignFilesAreInventoriedNeverRemoved) {
  MetricsRegistry metrics;
  const std::string dir =
      storeWithOneRecord(freshDir("fsck_foreign"), nullptr, metrics);
  writeFile(dir + "/README.txt", "not a store file");
  // A lock file an older store left behind: the store no longer writes
  // them, so fsck leaves it alone like any other foreign file.
  const std::string lock =
      "cell-0000000000000007-0000000000000001-0000000000001234.rec.lock";
  writeFile(dir + "/" + lock, "{\"pid\": 999999999, \"seed\": 7}");

  std::string output;
  driver::FsckReport report = runFsck(dir, false, &output);
  EXPECT_EQ(report.foreign, 2u) << output;
  EXPECT_TRUE(report.clean()) << output;  // foreign files are not damage

  report = runFsck(dir, true, &output);
  EXPECT_EQ(report.removed, 0u);
  EXPECT_EQ(::access((dir + "/README.txt").c_str(), F_OK), 0);
  EXPECT_EQ(::access((dir + "/" + lock).c_str(), F_OK), 0);
}

}  // namespace
}  // namespace wp
