// Tests for the persistent result store (driver/result_store.hpp +
// WP_STORE), the sweep's one durability path: verified round-trips,
// tamper/torn rejection, pinned digests, loud degradation on an
// unusable store, warm and partially populated stores resuming a sweep
// byte-identically at any job count, quarantined cells never published,
// seeds never mixed, and two processes sharing one store without
// leaving anything but records behind.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "driver/checkpoint.hpp"
#include "driver/result_store.hpp"
#include "driver/sweep.hpp"
#include "support/ensure.hpp"
#include "support/fnv.hpp"
#include "test_util.hpp"

namespace wp {
namespace {

std::vector<std::string> fastSubset() { return {"crc", "bitcount"}; }

driver::SchemeSpec wpSpec() {
  return driver::SchemeSpec::wayPlacement(16 * 1024);
}

double icacheEnergy(const driver::Normalized& n) { return n.icache_energy; }

/// Files in @p dir whose names end with @p suffix (sorted by readdir
/// order; tests only count them).
std::vector<std::string> filesWithSuffix(const std::string& dir,
                                         const std::string& suffix) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      out.push_back(name);
    }
  }
  ::closedir(d);
  return out;
}

/// An empty, freshly recreated store directory under the test tempdir.
std::string freshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string n = e->d_name;
      if (n != "." && n != "..") ::unlink((dir + "/" + n).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
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

// ---------------------------------------------------------------------
// Configuration: opt-in, strict numerics.

TEST(ResultStoreConfig, IsOptInAndParsesTheLeaseTimeout) {
  {
    ScopedEnv store("WP_STORE", "");
    EXPECT_FALSE(driver::ResultStore::fromEnv().has_value());
  }
  {
    ScopedEnv store("WP_STORE", "/tmp/some-store");
    const auto c = driver::ResultStore::fromEnv();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->dir, "/tmp/some-store");
  }
}

// ---------------------------------------------------------------------
// The store primitive, driven directly.

TEST(ResultStore, PutThenOpenRoundTripsUnderTheLeaseProtocol) {
  const std::string dir = freshDir("store_roundtrip");
  MetricsRegistry metrics;
  driver::ResultStore store({dir}, 7, metrics, nullptr);
  ASSERT_FALSE(store.degraded());

  auto miss = store.open("cell/a", 42);
  EXPECT_FALSE(miss.record.has_value());

  const driver::RunResult sent = fakeResult();
  store.put(miss.lease, "cell/a", 42, sent, 0.5);
  struct stat st;
  EXPECT_EQ(::stat(store.recordPathFor("cell/a", 42).c_str(), &st), 0);
  EXPECT_EQ(metrics.counter("store.records_written").value(), 1u);

  auto hit = store.open("cell/a", 42);
  ASSERT_TRUE(hit.record.has_value());
  EXPECT_EQ(driver::statsDigest(hit.record->result),
            driver::statsDigest(sent));
  EXPECT_EQ(hit.record->wall_seconds, 0.5);
  EXPECT_EQ(metrics.counter("store.hits").value(), 1u);
  EXPECT_EQ(metrics.counter("store.misses").value(), 1u);

  // A different image digest is a different cell: plain miss, no
  // rejection — the store never serves results for other bytes.
  auto other = store.open("cell/a", 43);
  EXPECT_FALSE(other.record.has_value());
  EXPECT_EQ(metrics.counter("store.rejected").value(), 0u);
}

TEST(ResultStore, RejectsTamperedAndTornRecordsAndRecomputes) {
  const std::string dir = freshDir("store_tamper");
  MetricsRegistry metrics;
  driver::ResultStore store({dir}, 0, metrics, nullptr);
  {
    auto miss = store.open("cell/a", 1);
    store.put(miss.lease, "cell/a", 1, fakeResult(), 0.0);
  }
  const std::string path = store.recordPathFor("cell/a", 1);

  // Flip one digit of the payload: the stats digest must trip.
  std::string body;
  {
    std::ifstream in(path);
    body.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  std::string tampered = body;
  const std::size_t at = tampered.find("\"instructions\": ");
  ASSERT_NE(at, std::string::npos);
  char& digit = tampered[at + 16];
  digit = digit == '9' ? '8' : '9';
  {
    std::ofstream out(path);
    out << tampered;
  }
  auto rejected = store.open("cell/a", 1);
  EXPECT_FALSE(rejected.record.has_value());
  EXPECT_EQ(metrics.counter("store.rejected").value(), 1u);
  store.put(rejected.lease, "cell/a", 1, fakeResult(), 0.0);

  // Truncate to half a record (a torn write can only come from outside
  // the store, since publishes are atomic renames).
  {
    std::ofstream out(path);
    out << body.substr(0, body.size() / 2);
  }
  auto torn = store.open("cell/a", 1);
  EXPECT_FALSE(torn.record.has_value());
  EXPECT_EQ(metrics.counter("store.rejected").value(), 2u);
}

// ---------------------------------------------------------------------
// Digest stability: store file names embed stringDigest and imageDigest,
// and records carry the equivalence hashes, so a changed hash would
// orphan every existing store. The literals are the values existing
// stores were written with; they must never change.

static_assert(fnv1a("") == kFnvOffset);
static_assert(fnv1a("a") == 0xaf63dc4c8601ec8cULL);
static_assert(fnv1a("foobar") == 0x85944171f73967e8ULL);

TEST(ResultStore, DigestsKeepTheValuesExistingStoresWereNamedWith) {
  EXPECT_EQ(
      driver::stringDigest("crc/32768/32/32/1/16384/1/0/0/way_placement"),
      0x6b52d3b76ba85565ULL);

  driver::SchemeSpec spec = wpSpec();
  spec.layout = "way_placement";
  const driver::Runner runner;
  const driver::PreparedWorkload crc = runner.prepare("crc");
  EXPECT_EQ(driver::imageDigest(crc.imageFor(spec.layout)),
            0x5c46269c552f210bULL);
  EXPECT_EQ(runner.run(crc, kXScale, spec).stats.retired_pc_hash,
            0x4b26193649e667bdULL);

  // The sweep names a solo record by the bare image digest and a co-run
  // record by the fold over its members' digests.
  const std::string dir = freshDir("store_record_names");
  ScopedEnv env("WP_STORE", dir.c_str());
  driver::SweepExecutor suite({"crc", "sha"}, energy::EnergyParams{}, 0, 1);
  ASSERT_NE(suite.store(), nullptr);
  driver::SchemeSpec co = spec;
  co.corun_quantum = 2000;
  co.corun_partners = "sha";
  EXPECT_FALSE(suite.tryRun(suite.prepared()[0], kXScale, spec).quarantined);
  EXPECT_FALSE(suite.tryRun(suite.prepared()[0], kXScale, co).quarantined);
  EXPECT_EQ(suite.metrics().counter("cells.computed").value(), 2u);
  const auto stored = [&](const std::string& key, u64 image_digest) {
    struct stat st {};
    const std::string path = suite.store()->recordPathFor(key, image_digest);
    return ::stat(path.c_str(), &st) == 0;
  };
  EXPECT_TRUE(stored("crc/32768/32/32/1/16384/1/0/0/way_placement",
                     0x5c46269c552f210bULL));
  EXPECT_TRUE(stored("crc/32768/32/32/1/16384/1/0/0/way_placement/m2000:0:sha",
                     0xf2c842175a94198bULL));
}

// ---------------------------------------------------------------------
// The store under the sweep executor.

TEST(StoreSweep, WarmRunServesEveryCellByteIdentically) {
  const std::string dir = freshDir("store_warm");
  ScopedEnv env("WP_STORE", dir.c_str());

  double e_cold = 0.0;
  {
    driver::SweepExecutor cold({"crc"}, energy::EnergyParams{}, 0, 1);
    ASSERT_NE(cold.store(), nullptr);
    EXPECT_FALSE(cold.store()->degraded());
    e_cold = cold.averageNormalized(kXScale, wpSpec(), icacheEnergy);
    EXPECT_EQ(cold.metrics().counter("cells.computed").value(), 2u);
    EXPECT_EQ(cold.metrics().counter("store.misses").value(), 2u);
    EXPECT_EQ(cold.metrics().counter("store.records_written").value(), 2u);
  }

  driver::SweepExecutor warm({"crc"}, energy::EnergyParams{}, 0, 1);
  EXPECT_EQ(warm.averageNormalized(kXScale, wpSpec(), icacheEnergy), e_cold)
      << "a warm store must reproduce the cold numbers byte-identically";
  EXPECT_EQ(warm.metrics().counter("cells.computed").value(), 0u)
      << "every cell must come from the store";
  EXPECT_EQ(warm.metrics().counter("cells.from_store").value(), 2u);
  EXPECT_EQ(warm.metrics().counter("store.hits").value(), 2u);
  const auto& p = warm.prepared().at(0);
  EXPECT_EQ(warm.tryRun(p, kXScale, wpSpec()).attempts, 0u)
      << "0 attempts marks a cell served without running anything";
  EXPECT_EQ(filesWithSuffix(dir, ".lock").size(), 0u);
}

// Resume: a sweep re-run on the store its first run populated reproduces
// the first run's tables byte-identically at any job count.
TEST(Checkpoint, ResumedSweepIsByteIdenticalAtAnyJobCount) {
  const std::string dir = freshDir("store_resume");
  ScopedEnv env("WP_STORE", dir.c_str());
  const auto ed = [](const driver::Normalized& n) { return n.ed_product; };

  double e_first = 0.0;
  double ed_first = 0.0;
  u64 cycles = 0;
  std::vector<u8> output;
  {
    driver::SweepExecutor first(fastSubset(), energy::EnergyParams{}, 0, 8);
    first.runAll({{kXScale, wpSpec()}});
    e_first = first.averageNormalized(kXScale, wpSpec(), icacheEnergy);
    ed_first = first.averageNormalized(kXScale, wpSpec(), ed);
    const driver::RunResult& r =
        first.run(first.prepared().at(0), kXScale, wpSpec());
    cycles = r.stats.cycles;
    output = r.output;
    EXPECT_EQ(first.metrics().counter("cells.from_store").value(), 0u);
    EXPECT_EQ(first.metrics().counter("cells.computed").value(), 4u)
        << "2 workloads x (baseline + way-placement)";
  }

  for (const unsigned jobs : {1u, 8u}) {
    driver::SweepExecutor resumed(fastSubset(), energy::EnergyParams{}, 0,
                                  jobs);
    resumed.runAll({{kXScale, wpSpec()}});
    EXPECT_EQ(resumed.metrics().counter("cells.computed").value(), 0u)
        << "every cell must come from the store at jobs=" << jobs;
    EXPECT_EQ(resumed.metrics().counter("cells.from_store").value(), 4u);
    EXPECT_EQ(resumed.averageNormalized(kXScale, wpSpec(), icacheEnergy),
              e_first);
    EXPECT_EQ(resumed.averageNormalized(kXScale, wpSpec(), ed), ed_first);
    const auto view = resumed.tryRun(resumed.prepared().at(0), kXScale,
                                     wpSpec());
    EXPECT_EQ(view.attempts, 0u) << "0 attempts marks a cell served";
    EXPECT_EQ(view.result->stats.cycles, cycles);
    EXPECT_EQ(view.result->output, output);
  }
}

TEST(StoreSweep, PartialStoreServesItsCellsAndComputesTheRest) {
  // Reference numbers from a sweep without a store.
  driver::SweepExecutor fresh(fastSubset(), energy::EnergyParams{}, 0, 2);
  const double e_fresh =
      fresh.averageNormalized(kXScale, wpSpec(), icacheEnergy);

  const std::string dir = freshDir("store_partial");
  ScopedEnv env("WP_STORE", dir.c_str());
  {  // Publish only crc's two cells (as if killed before bitcount).
    driver::SweepExecutor first({"crc"}, energy::EnergyParams{}, 0, 2);
    first.runAll({{kXScale, wpSpec()}});
  }
  {  // ...while bitcount's way-placement cell was mid-compute in a
     // process built before the store dropped its lock files: the dead
     // holder left its lock behind.
    const pid_t dead = ::fork();
    ASSERT_GE(dead, 0);
    if (dead == 0) std::_Exit(0);
    int status = 0;
    ASSERT_EQ(::waitpid(dead, &status, 0), dead);
    MetricsRegistry metrics;
    const driver::ResultStore store({dir}, 0, metrics, nullptr);
    const driver::PreparedWorkload& bitcount = fresh.prepared().at(1);
    std::ofstream lock(
        store.recordPathFor(
            driver::SweepExecutor::keyOf(bitcount.name, kXScale, wpSpec()),
            driver::imageDigest(bitcount.imageFor(wpSpec().layout))) +
        ".lock");
    lock << "{\"pid\": " << dead << ", \"seed\": 0}\n";
  }
  const auto lock_bytes = [&] {
    const auto locks = filesWithSuffix(dir, ".lock");
    if (locks.size() != 1) return std::string("missing");
    std::ifstream in(dir + "/" + locks.front());
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string planted = lock_bytes();

  driver::SweepExecutor resumed(fastSubset(), energy::EnergyParams{}, 0, 2);
  resumed.runAll({{kXScale, wpSpec()}});
  EXPECT_EQ(resumed.metrics().counter("cells.from_store").value(), 2u)
      << "crc's baseline + way-placement are served";
  EXPECT_EQ(resumed.metrics().counter("cells.computed").value(), 2u)
      << "bitcount's cells compute, the locked one included";
  EXPECT_EQ(resumed.averageNormalized(kXScale, wpSpec(), icacheEnergy),
            e_fresh)
      << "a resumed sweep must reproduce the uninterrupted numbers";
  EXPECT_EQ(filesWithSuffix(dir, ".rec").size(), 4u);
  EXPECT_EQ(lock_bytes(), planted) << "the store never touches a lock file";
}

TEST(StoreSweep, QuarantinedCellsAreNeverPublishedSoReRunRetries) {
  const std::string dir = freshDir("store_quar");
  ScopedEnv env("WP_STORE", dir.c_str());
  driver::SchemeSpec bad = wpSpec();
  bad.fault.cell_fault = fault::CellFault::kPersistent;

  driver::SupervisorConfig cfg;
  cfg.retries = 0;
  {
    driver::SweepExecutor first({"crc"}, energy::EnergyParams{}, 0, 1, &cfg);
    const auto& p = first.prepared().at(0);
    EXPECT_TRUE(first.tryRun(p, kXScale, bad).quarantined);
    EXPECT_FALSE(first.tryRun(p, kXScale, wpSpec()).quarantined);
  }
  EXPECT_EQ(filesWithSuffix(dir, ".rec").size(), 1u)
      << "only the healthy cell may be published";

  // On a re-run the quarantined cell gets a fresh set of attempts (and
  // with the spec-level persistent fault still present, quarantines
  // again after recomputing — not after a store read).
  driver::SweepExecutor again({"crc"}, energy::EnergyParams{}, 0, 1, &cfg);
  const auto& p = again.prepared().at(0);
  const auto view = again.tryRun(p, kXScale, bad);
  EXPECT_TRUE(view.quarantined);
  EXPECT_EQ(view.attempts, 1u) << "the cell was retried, not served";
  EXPECT_EQ(again.tryRun(p, kXScale, wpSpec()).attempts, 0u)
      << "the healthy cell is served from the store";
}

TEST(StoreSweep, StoreOfAnotherSeedServesNothing) {
  // Seed-8 numbers from a sweep without a store.
  driver::SweepExecutor fresh({"crc"}, energy::EnergyParams{}, 8, 1);
  const double e_seed8 =
      fresh.averageNormalized(kXScale, wpSpec(), icacheEnergy);

  const std::string dir = freshDir("store_seed");
  ScopedEnv env("WP_STORE", dir.c_str());
  {
    driver::SweepExecutor seed7({"crc"}, energy::EnergyParams{}, 7, 1);
    seed7.runAll({{kXScale, wpSpec()}});
    EXPECT_EQ(seed7.metrics().counter("store.records_written").value(), 2u);
  }
  driver::SweepExecutor seed8({"crc"}, energy::EnergyParams{}, 8, 1);
  EXPECT_EQ(seed8.averageNormalized(kXScale, wpSpec(), icacheEnergy), e_seed8)
      << "another seed's records must never stand in for this seed's cells";
  EXPECT_EQ(seed8.metrics().counter("store.hits").value(), 0u);
  EXPECT_EQ(seed8.metrics().counter("cells.from_store").value(), 0u);
  EXPECT_EQ(seed8.metrics().counter("cells.computed").value(), 2u);
  EXPECT_EQ(filesWithSuffix(dir, ".rec").size(), 4u)
      << "both seeds' records coexist in one store";
}

TEST(StoreSweep, TamperedRecordIsRecomputedNotServed) {
  const std::string dir = freshDir("store_sweep_tamper");
  ScopedEnv env("WP_STORE", dir.c_str());
  double e_cold = 0.0;
  {
    driver::SweepExecutor cold({"crc"}, energy::EnergyParams{}, 0, 1);
    e_cold = cold.averageNormalized(kXScale, wpSpec(), icacheEnergy);
  }
  const auto records = filesWithSuffix(dir, ".rec");
  ASSERT_EQ(records.size(), 2u);
  // Tamper one digit of one record's payload.
  const std::string victim = dir + "/" + records.front();
  std::string body;
  {
    std::ifstream in(victim);
    body.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::size_t at = body.find("\"instructions\": ");
  ASSERT_NE(at, std::string::npos);
  body[at + 16] = body[at + 16] == '9' ? '8' : '9';
  {
    std::ofstream out(victim);
    out << body;
  }

  driver::SweepExecutor warm({"crc"}, energy::EnergyParams{}, 0, 1);
  EXPECT_EQ(warm.averageNormalized(kXScale, wpSpec(), icacheEnergy), e_cold)
      << "a tampered store may cost compute, never correctness";
  EXPECT_EQ(warm.metrics().counter("store.rejected").value(), 1u);
  EXPECT_EQ(warm.metrics().counter("cells.from_store").value(), 1u);
  EXPECT_EQ(warm.metrics().counter("cells.computed").value(), 1u)
      << "only the tampered cell recomputes";
}

TEST(StoreSweep, UnusableStorePathDegradesLoudlyToComputeEverything) {
  // WP_STORE pointing at a regular file: mkdir and every record open
  // fail. (chmod-based unwritability is untestable as root, which
  // ignores permission bits.)
  const std::string path = testing::TempDir() + "store_not_a_dir";
  {
    std::ofstream out(path);
    out << "i am a file\n";
  }
  ScopedEnv env("WP_STORE", path.c_str());

  driver::SweepExecutor suite({"crc"}, energy::EnergyParams{}, 0, 1);
  ASSERT_NE(suite.store(), nullptr);
  EXPECT_TRUE(suite.store()->degraded());
  EXPECT_EQ(suite.metrics().counter("store.degraded").value(), 1u);
  // The sweep itself must be unaffected: everything computes normally.
  EXPECT_GT(suite.averageNormalized(kXScale, wpSpec(), icacheEnergy), 0.0);
  EXPECT_EQ(suite.metrics().counter("cells.computed").value(), 2u);
  EXPECT_EQ(suite.metrics().counter("store.hits").value(), 0u);
  EXPECT_TRUE(suite.quarantined().empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Two processes racing one store.

TEST(StoreRace, TwoProcessesShareOneStoreWithoutTornRecordsOrLitter) {
  const std::string dir = freshDir("store_race");
  const std::string child_out = testing::TempDir() + "store_race_child.bin";
  std::remove(child_out.c_str());
  ScopedEnv env("WP_STORE", dir.c_str());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // The racing sweep: same grid, same seed, same store.
    double avg = 0.0;
    {
      driver::SweepExecutor child(fastSubset(), energy::EnergyParams{}, 0, 2);
      child.runAll({{kXScale, wpSpec()}});
      avg = child.averageNormalized(kXScale, wpSpec(), icacheEnergy);
    }
    std::ofstream out(child_out, std::ios::binary);
    out.write(reinterpret_cast<const char*>(&avg), sizeof avg);
    out.flush();
    std::_Exit(out.good() ? 0 : 1);
  }

  driver::SweepExecutor mine(fastSubset(), energy::EnergyParams{}, 0, 2);
  mine.runAll({{kXScale, wpSpec()}});
  const double my_avg =
      mine.averageNormalized(kXScale, wpSpec(), icacheEnergy);

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  double child_avg = 0.0;
  {
    std::ifstream in(child_out, std::ios::binary);
    ASSERT_TRUE(in.read(reinterpret_cast<char*>(&child_avg),
                        sizeof child_avg)
                    .good());
  }
  EXPECT_EQ(my_avg, child_avg)
      << "both processes must print byte-identical tables";

  // Exactly one record per cell (2 workloads x baseline+way-placement)
  // and nothing else: a cell both processes computed was staged under
  // each writer's pid and renamed into place, the last rename winning.
  EXPECT_EQ(filesWithSuffix(dir, ".rec").size(), 4u);
  EXPECT_EQ(filesWithSuffix(dir, ".lock").size(), 0u);
  EXPECT_EQ(filesWithSuffix(dir, "").size(), 6u)
      << "nothing but records (and . / ..) may remain in the store";
  std::remove(child_out.c_str());
}

}  // namespace
}  // namespace wp
