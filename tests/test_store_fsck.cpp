// Tests for the offline store integrity checker (driver/store_fsck.hpp
// + the wp_store_fsck tool): flag parsing, a healthy round trip against
// a real ResultStore, detection of torn/tampered/misfiled records, the
// three stale-lease signals (torn payload, dead holder, previous-boot
// nonce), staging-file litter, and the two safety rails — live holders
// and foreign files are never touched, even under --remove.
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
  EXPECT_TRUE(out.lease.owned());
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

TEST(FsckStore, LeaseStalenessUsesTheStoresOwnEvidence) {
  MetricsRegistry metrics;
  const std::string dir =
      storeWithOneRecord(freshDir("fsck_lease"), nullptr, metrics);
  const std::string boot = std::to_string(driver::bootNonce());
  const std::string pid = std::to_string(static_cast<long>(::getpid()));

  // Torn payload: cannot probe the holder, so it is stale.
  writeFile(dir + "/a.rec.lock", "garbage");
  // Dead holder: a pid far beyond pid_max is provably not running.
  writeFile(dir + "/b.rec.lock",
            "{\"pid\": 999999999, \"boot\": " + boot + ", \"seed\": 7}");
  // Live holder, current boot: may be mid-compute, must be left alone.
  writeFile(dir + "/c.rec.lock",
            "{\"pid\": " + pid + ", \"boot\": " + boot + ", \"seed\": 7}");
  // Live pid but a previous boot's nonce: the pid was reused, stale.
  writeFile(dir + "/d.rec.lock",
            "{\"pid\": " + pid + ", \"boot\": " +
                std::to_string(driver::bootNonce() + 1) + ", \"seed\": 7}");
  // Pids no process can have (negative, beyond pid_t) are torn payloads:
  // neither may be probed as pid -1 or as 4294967297 truncated to pid 1.
  writeFile(dir + "/e.rec.lock",
            "{\"pid\": -1, \"boot\": " + boot + ", \"seed\": 7}");
  writeFile(dir + "/f.rec.lock",
            "{\"pid\": 4294967297, \"boot\": " + boot + ", \"seed\": 7}");

  const bool nonce_works = driver::bootNonce() != 0;
  std::string output;
  driver::FsckReport report = runFsck(dir, false, &output);
  EXPECT_EQ(report.stale_leases, nonce_works ? 5u : 4u) << output;
  EXPECT_EQ(report.live_leases, nonce_works ? 1u : 2u) << output;
  EXPECT_NE(output.find("torn payload"), std::string::npos);
  EXPECT_NE(output.find("holder process is dead"), std::string::npos);
  if (nonce_works) {
    EXPECT_NE(output.find("previous boot"), std::string::npos);
  }

  // --remove clears the stale leases and never the live one.
  report = runFsck(dir, true, &output);
  EXPECT_EQ(report.removed, nonce_works ? 5u : 4u) << output;
  EXPECT_EQ(::access((dir + "/c.rec.lock").c_str(), F_OK), 0);
  EXPECT_NE(::access((dir + "/b.rec.lock").c_str(), F_OK), 0);
  EXPECT_NE(::access((dir + "/e.rec.lock").c_str(), F_OK), 0);
  EXPECT_NE(::access((dir + "/f.rec.lock").c_str(), F_OK), 0);
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

  std::string output;
  driver::FsckReport report = runFsck(dir, false, &output);
  EXPECT_EQ(report.foreign, 1u) << output;
  EXPECT_TRUE(report.clean()) << output;  // foreign files are not damage

  report = runFsck(dir, true, &output);
  EXPECT_EQ(report.removed, 0u);
  EXPECT_EQ(::access((dir + "/README.txt").c_str(), F_OK), 0);
}

}  // namespace
}  // namespace wp
