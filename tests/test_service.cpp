// Chaos tests for the crash-only sweep service (driver/service.hpp):
// strict WP_SERVE_* parsing, a malformed-request fuzz corpus that must
// never kill the daemon, deadline and crash-fault degradation through
// the supervisor, concurrent clients collapsing to one compute with
// byte-identical replies, overload shedding under a bounded queue,
// graceful drain, and the headline crash-only property — SIGKILL a
// serving process mid-compute, restart on the same WP_STORE, and replay
// its history byte-identically with zero recomputation and zero torn
// records.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "driver/checkpoint.hpp"
#include "driver/service.hpp"
#include "driver/store_fsck.hpp"
#include "driver/sweep.hpp"
#include "support/shutdown.hpp"
#include "support/socket.hpp"

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

/// An empty path under the test tempdir (anything there from a previous
/// run is removed; the store/socket code creates what it needs).
std::string freshPath(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  if (system(("rm -rf '" + path + "'").c_str()) != 0) ADD_FAILURE();
  return path;
}

/// One field of a flat JSON reply line ("" when absent; an unparseable
/// reply is a test failure in itself).
std::string field(const std::string& reply, const std::string& key) {
  std::map<std::string, driver::JsonToken> tokens;
  if (!driver::parseFlatJsonLine(reply, tokens)) {
    ADD_FAILURE() << "unparseable reply: '" << reply << "'";
    return "";
  }
  const auto it = tokens.find(key);
  return it == tokens.end() ? "" : it->second.text;
}

std::string fate(const std::string& reply) { return field(reply, "fate"); }

/// The service under test: one prepared executor (crc — the suite's
/// fastest workload) plus the process shutdown latch. WP_STORE is
/// pinned (to @p store_dir) so ambient environment never leaks
/// persistence into a test that did not ask for it. Restores the latch
/// on destruction so drain tests cannot poison later ones.
struct TestService {
  explicit TestService(u64 seed = 7, unsigned jobs = 1,
                       driver::SupervisorConfig sup = {},
                       driver::ServiceConfig config = {},
                       std::vector<std::string> workloads = {"crc"},
                       const std::string& store_dir = "")
      : store_env("WP_STORE", store_dir.c_str()),
        sup_config(sup),
        suite(std::move(workloads), energy::EnergyParams{}, seed, jobs,
              &sup_config, nullptr),
        service(std::move(config), suite, ShutdownLatch::instance()) {
    ShutdownLatch::instance().install();
  }
  ~TestService() { ShutdownLatch::instance().reset(); }

  ScopedEnv store_env;
  driver::SupervisorConfig sup_config;
  driver::SweepExecutor suite;
  driver::SweepService service;
};

/// Blocking connect with retries, for clients racing serve()'s bind.
int connectRetry(const std::string& path) {
  std::string error;
  for (int i = 0; i < 200; ++i) {
    const int fd = support::connectUnix(path, error);
    if (fd >= 0) return fd;
    ::usleep(20 * 1000);
  }
  ADD_FAILURE() << "cannot connect to " << path << ": " << error;
  return -1;
}

/// One lock-step request/reply round trip over an open connection.
std::string roundTrip(int fd, support::LineReader& reader,
                      const std::string& request) {
  EXPECT_TRUE(support::sendAll(fd, request + "\n"));
  std::string reply;
  EXPECT_TRUE(reader.next(reply)) << "no reply to: " << request;
  return reply;
}

// ---------------------------------------------------------------------
// Configuration: strict numerics, like every WP_* knob.

TEST(ServiceConfigDeathTest, MalformedKnobsExitOneNamingTheKnob) {
  {
    ScopedEnv queue("WP_SERVE_QUEUE", "12x");
    EXPECT_EXIT((void)driver::ServiceConfig::fromEnv(),
                testing::ExitedWithCode(1), "WP_SERVE_QUEUE='12x'");
  }
  {
    ScopedEnv queue("WP_SERVE_QUEUE", "0");  // below the [1, 4096] range
    EXPECT_EXIT((void)driver::ServiceConfig::fromEnv(),
                testing::ExitedWithCode(1), "WP_SERVE_QUEUE='0'");
  }
  {
    ScopedEnv queue("WP_SERVE_QUEUE", "5000");  // above the range
    EXPECT_EXIT((void)driver::ServiceConfig::fromEnv(),
                testing::ExitedWithCode(1), "WP_SERVE_QUEUE='5000'");
  }
}

TEST(ServiceConfig, DefaultsAndExplicitValues) {
  {
    ScopedEnv socket("WP_SERVE_SOCKET", "");
    ScopedEnv queue("WP_SERVE_QUEUE", "");
    const driver::ServiceConfig c = driver::ServiceConfig::fromEnv();
    EXPECT_EQ(c.socket_path, "wp_serve.sock");
    EXPECT_EQ(c.queue_limit, 64u);
  }
  {
    ScopedEnv socket("WP_SERVE_SOCKET", "/tmp/x.sock");
    ScopedEnv queue("WP_SERVE_QUEUE", "3");
    const driver::ServiceConfig c = driver::ServiceConfig::fromEnv();
    EXPECT_EQ(c.socket_path, "/tmp/x.sock");
    EXPECT_EQ(c.queue_limit, 3u);
  }
}

// ---------------------------------------------------------------------
// handleLine: the whole protocol minus the socket.

TEST(ServiceHandleLine, EvalServesDeterministicReplies) {
  const std::string request =
      "{\"op\": \"eval\", \"id\": \"r1\", \"workload\": \"crc\", "
      "\"wp_kb\": 8}";
  std::string first;
  {
    TestService ts;
    first = ts.service.handleLine(request);
    EXPECT_EQ(fate(first), "served");
    EXPECT_EQ(field(first, "id"), "r1");
    EXPECT_NE(field(first, "key"), "");
    EXPECT_NE(field(first, "icache_energy"), "");
    EXPECT_NE(field(first, "ed_product"), "");
    // Same request again: the memo serves it, bytes identical.
    EXPECT_EQ(ts.service.handleLine(request), first);
  }
  // A fresh executor in a fresh service computes the same bytes: replies
  // are a pure function of the request (no wall-clock, no attempt
  // counts) — the property the crash-only restart relies on.
  TestService again;
  EXPECT_EQ(again.service.handleLine(request), first);
}

TEST(ServiceHandleLine, SuiteRowAndRecommendServe) {
  TestService ts(7, 2, {}, {}, {"crc", "bitcount"});
  const std::string row = ts.service.handleLine(
      "{\"op\": \"suite\", \"scheme\": \"way-placement\", \"wp_kb\": 8}");
  EXPECT_EQ(fate(row), "served");
  EXPECT_EQ(field(row, "included"), "2");
  EXPECT_EQ(field(row, "excluded"), "0");

  const std::string rec = ts.service.handleLine(
      "{\"op\": \"recommend\", \"workload\": \"bitcount\"}");
  EXPECT_EQ(fate(rec), "served");
  EXPECT_NE(field(rec, "wp_bytes"), "");
  EXPECT_NE(field(rec, "coverage"), "");
}

TEST(ServiceHandleLine, MalformedRequestFuzzCorpusNeverKillsTheService) {
  TestService ts;
  const std::vector<std::string> corpus = {
      "",
      "not json at all",
      "{\"op\": \"eval\"",                       // truncated object
      "{}",                                      // missing op
      "{\"op\": \"explode\"}",                   // unknown op
      "{\"op\": 7}",                             // op must be a string
      "{\"op\": \"eval\"}",                      // missing workload
      "{\"op\": \"eval\", \"workload\": \"no-such\"}",
      "{\"op\": \"eval\", \"workload\": 42}",    // wrong type
      "{\"op\": \"eval\", \"workload\": \"crc\", \"bogus\": 1}",
      "{\"op\": \"health\", \"workload\": \"crc\"}",  // field/op mismatch
      "{\"op\": \"eval\", \"workload\": \"crc\", \"icache_kb\": \"lots\"}",
      "{\"op\": \"eval\", \"workload\": \"crc\", \"icache_kb\": -4}",
      // Neither is a JSON number: no leading zero, no plus sign.
      "{\"op\": \"eval\", \"workload\": \"crc\", \"wp_kb\": 08}",
      "{\"op\": \"eval\", \"workload\": \"crc\", \"icache_kb\": +32}",
      "{\"op\": \"eval\", \"workload\": \"crc\", \"ways\": 0}",
      // 1 KB / 256 B lines / 64 ways: fewer bytes than one full set.
      "{\"op\": \"eval\", \"workload\": \"crc\", \"icache_kb\": 1, "
      "\"line_bytes\": 256, \"ways\": 64}",
      "{\"op\": \"eval\", \"workload\": \"crc\", \"scheme\": \"magic\"}",
      "{\"op\": \"eval\", \"workload\": \"crc\", \"seed\": 99}",
      "{\"op\": \"eval\", \"workload\": \"crc\", \"layout\": \"zigzag\"}",
      "{\"op\": \"eval\", \"workload\": \"crc\", \"scheme\": "
      "\"baseline\", \"wp_kb\": 4}",
      "{\"op\": \"eval\", \"workload\": \"crc\", \"scheme\": "
      "\"baseline\", \"fault\": \"transient\"}",
      "{\"op\": \"eval\", \"workload\": \"crc\", \"fault\": \"nonsense\"}",
      // crash/hang faults need process isolation this service lacks.
      "{\"op\": \"eval\", \"workload\": \"crc\", \"fault\": \"crash\"}",
      "{\"op\": \"eval\", \"workload\": \"crc\", \"fault\": \"hang\"}",
      "{\"op\": \"recommend\", \"workload\": \"crc\", \"layout\": "
      "\"zigzag\"}",
  };
  for (const std::string& line : corpus) {
    const std::string reply = ts.service.handleLine(line);
    EXPECT_EQ(fate(reply), "error") << "request: " << line
                                    << "\nreply: " << reply;
    EXPECT_NE(field(reply, "error"), "") << "request: " << line;
  }
  // The daemon is fine: health answers, and every rejection was counted.
  const std::string health = ts.service.handleLine("{\"op\": \"health\"}");
  EXPECT_EQ(fate(health), "ok");
  EXPECT_EQ(field(health, "draining"), "false");
  const std::string stats = ts.service.handleLine("{\"op\": \"stats\"}");
  EXPECT_EQ(field(stats, "requests_invalid"),
            std::to_string(corpus.size()));
  EXPECT_EQ(field(stats, "cells_computed"), "0");
}

TEST(ServiceHandleLine, HangFaultBecomesDeadlineUnderIsolation) {
  driver::SupervisorConfig sup;
  sup.isolate = true;
  sup.retries = 0;  // one hanging attempt, not two
  sup.cell_timeout_ms = 300;
  sup.timeout_check_interval = 1u << 12;
  TestService ts(7, 1, sup);

  const std::string reply = ts.service.handleLine(
      "{\"op\": \"eval\", \"workload\": \"crc\", \"fault\": \"hang\"}");
  EXPECT_EQ(fate(reply), "deadline") << reply;
  EXPECT_NE(field(reply, "error").find("WP_CELL_TIMEOUT_MS"),
            std::string::npos);
}

TEST(ServiceHandleLine, CrashFaultsDegradeByRetryBudget) {
  driver::SupervisorConfig sup;
  sup.isolate = true;
  sup.retries = 1;
  TestService ts(7, 1, sup);
  // One worker death, then the retry serves the cell: the client never
  // sees the crash, the service never dies with it.
  const std::string survived = ts.service.handleLine(
      "{\"op\": \"eval\", \"workload\": \"crc\", \"fault\": \"crash:1\"}");
  EXPECT_EQ(fate(survived), "served") << survived;
  // A persistent crasher exhausts the budget and is quarantined — a
  // reply the client can act on, not a dead daemon.
  const std::string reply = ts.service.handleLine(
      "{\"op\": \"eval\", \"workload\": \"crc\", \"fault\": \"crash:99\"}");
  EXPECT_EQ(fate(reply), "quarantined") << reply;
  EXPECT_NE(field(reply, "error"), "");
}

TEST(ServiceHandleLine, HangWithoutDeadlineIsRejectedAtAdmission) {
  driver::SupervisorConfig sup;
  sup.isolate = true;  // isolation alone is not enough for a hang
  TestService ts(7, 1, sup);
  const std::string reply = ts.service.handleLine(
      "{\"op\": \"eval\", \"workload\": \"crc\", \"fault\": \"hang\"}");
  EXPECT_EQ(fate(reply), "error") << reply;
  EXPECT_NE(field(reply, "error").find("deadline"), std::string::npos);
}

TEST(ServiceHandleLine, DrainOpLatchesTheProcessShutdownPath) {
  TestService ts;
  EXPECT_FALSE(ts.service.draining());
  const std::string reply = ts.service.handleLine("{\"op\": \"drain\"}");
  EXPECT_EQ(fate(reply), "ok");
  EXPECT_EQ(field(reply, "draining"), "true");
  EXPECT_TRUE(ts.service.draining());
  EXPECT_TRUE(ShutdownLatch::instance().requested());
  // ~TestService resets the latch for later tests.
}

// ---------------------------------------------------------------------
// serve(): the real socket loop.

TEST(ServiceServe, ConcurrentClientsShareOneComputeAndDrainCleanly) {
  driver::ServiceConfig config;
  config.socket_path = freshPath("svc1.sock");
  TestService ts(7, 2, {}, config);

  int rc = -1;
  std::thread server([&] { rc = ts.service.serve(); });

  const std::string request =
      "{\"op\": \"eval\", \"workload\": \"crc\", \"wp_kb\": 8}";
  constexpr int kClients = 6;
  std::vector<std::string> replies(kClients);
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        const int fd = connectRetry(config.socket_path);
        if (fd < 0) return;
        support::LineReader reader(fd);
        replies[i] = roundTrip(fd, reader, request);
        ::close(fd);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(fate(replies[i]), "served") << replies[i];
    EXPECT_EQ(replies[i], replies[0]) << "reply " << i << " diverged";
  }

  // All six requests collapsed onto one computed cell + its baseline.
  const int fd = connectRetry(config.socket_path);
  ASSERT_GE(fd, 0);
  support::LineReader reader(fd);
  const std::string stats = roundTrip(fd, reader, "{\"op\": \"stats\"}");
  EXPECT_EQ(field(stats, "cells_computed"), "2") << stats;
  EXPECT_EQ(field(stats, "requests_shed"), "0");

  const std::string health = roundTrip(fd, reader, "{\"op\": \"health\"}");
  EXPECT_EQ(fate(health), "ok");
  EXPECT_EQ(field(health, "queue_limit"), "64");

  const std::string drain = roundTrip(fd, reader, "{\"op\": \"drain\"}");
  EXPECT_EQ(fate(drain), "ok");
  ::close(fd);
  server.join();
  EXPECT_EQ(rc, 0);
}

TEST(ServiceServe, OverloadShedsDeadlinesFireAndDrainStillFlushes) {
  driver::SupervisorConfig sup;
  sup.isolate = true;
  sup.retries = 0;
  sup.cell_timeout_ms = 400;
  sup.timeout_check_interval = 1u << 12;
  driver::ServiceConfig config;
  config.socket_path = freshPath("svc2.sock");
  config.queue_limit = 1;  // worker + one queued slot; the rest shed
  TestService ts(7, 1, sup, config);

  int rc = -1;
  std::thread server([&] { rc = ts.service.serve(); });

  const int fd = connectRetry(config.socket_path);
  ASSERT_GE(fd, 0);
  // Wedge the single worker on a hanging cell, give it a moment to pop
  // the job off the queue, then burst distinct cells at the daemon.
  // With the worker busy and one queue slot, most of the burst must be
  // shed — the daemon never buffers unboundedly and keeps answering.
  ASSERT_TRUE(support::sendAll(
      fd,
      "{\"op\": \"eval\", \"id\": \"hang\", \"workload\": \"crc\", "
      "\"fault\": \"hang\"}\n"));
  ::usleep(100 * 1000);
  std::string burst;
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    burst += "{\"op\": \"eval\", \"id\": \"b" + std::to_string(i) +
             "\", \"workload\": \"crc\", \"wp_kb\": " +
             std::to_string(i + 1) + "}\n";
  }
  ASSERT_TRUE(support::sendAll(fd, burst));

  support::LineReader reader(fd);
  int served = 0, shed = 0, deadline = 0;
  for (int i = 0; i < kBurst + 1; ++i) {
    std::string reply;
    ASSERT_TRUE(reader.next(reply)) << "lost reply " << i;
    const std::string f = fate(reply);
    if (f == "served") ++served;
    if (f == "deadline") {
      ++deadline;
      EXPECT_EQ(field(reply, "id"), "hang");
    }
    if (f == "overloaded") {
      ++shed;
      EXPECT_EQ(field(reply, "retry_after_ms"), "250") << reply;
    }
  }
  EXPECT_EQ(deadline, 1);
  EXPECT_GE(served, 1);  // at least the queued slot eventually serves
  EXPECT_GE(shed, 1);
  EXPECT_EQ(served + shed + deadline, kBurst + 1);

  // Health answered on the poll thread the whole time; now drain.
  const std::string health = roundTrip(fd, reader, "{\"op\": \"health\"}");
  EXPECT_EQ(fate(health), "ok");
  const std::string stats = roundTrip(fd, reader, "{\"op\": \"stats\"}");
  EXPECT_EQ(field(stats, "requests_shed"), std::to_string(shed));
  EXPECT_EQ(fate(roundTrip(fd, reader, "{\"op\": \"drain\"}")), "ok");
  ::close(fd);
  server.join();
  EXPECT_EQ(rc, 0);
}

TEST(ServiceServe, DrainRefusesNewWorkButFlushesAdmittedWork) {
  driver::SupervisorConfig sup;
  sup.isolate = true;
  sup.retries = 0;
  sup.cell_timeout_ms = 500;
  sup.timeout_check_interval = 1u << 12;
  driver::ServiceConfig config;
  config.socket_path = freshPath("svc3.sock");
  TestService ts(7, 1, sup, config);

  int rc = -1;
  std::thread server([&] { rc = ts.service.serve(); });
  const int fd = connectRetry(config.socket_path);
  ASSERT_GE(fd, 0);
  support::LineReader reader(fd);

  // Occupy the worker so the drain has admitted work to flush, then
  // latch exactly as SIGTERM would while a new request is in the pipe.
  ASSERT_TRUE(support::sendAll(
      fd,
      "{\"op\": \"eval\", \"id\": \"busy\", \"workload\": \"crc\", "
      "\"fault\": \"hang\"}\n"));
  ::usleep(100 * 1000);
  ShutdownLatch::instance().trigger(SIGTERM);
  ASSERT_TRUE(support::sendAll(
      fd,
      "{\"op\": \"eval\", \"id\": \"late\", \"workload\": \"crc\"}\n"));

  std::map<std::string, std::string> fates;
  for (int i = 0; i < 2; ++i) {
    std::string reply;
    ASSERT_TRUE(reader.next(reply)) << "lost reply " << i;
    fates[field(reply, "id")] = fate(reply);
  }
  EXPECT_EQ(fates["late"], "draining");  // refused, with a tagged reply
  EXPECT_EQ(fates["busy"], "deadline");  // admitted work still flushed
  ::close(fd);
  server.join();
  EXPECT_EQ(rc, 0);
}

// ---------------------------------------------------------------------
// Crash-only: SIGKILL, restart, byte-identical replay, zero recompute.

TEST(ServiceServe, WarmRestartRepliesByteIdenticalWithZeroRecompute) {
  const std::string store = freshPath("svc_store");
  const std::vector<std::string> requests = {
      "{\"op\": \"eval\", \"workload\": \"crc\", \"wp_kb\": 8}",
      "{\"op\": \"eval\", \"workload\": \"crc\", \"wp_kb\": 16}",
  };
  std::vector<std::string> cold;
  {
    TestService ts(7, 1, {}, {}, {"crc"}, store);
    for (const std::string& r : requests) {
      cold.push_back(ts.service.handleLine(r));
      EXPECT_EQ(fate(cold.back()), "served");
    }
  }
  // "Restart": a brand-new executor over the same store must re-serve
  // the history byte-identically without computing a single cell.
  TestService warm(7, 1, {}, {}, {"crc"}, store);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(warm.service.handleLine(requests[i]), cold[i]);
  }
  const std::string stats = warm.service.handleLine("{\"op\": \"stats\"}");
  EXPECT_EQ(field(stats, "cells_computed"), "0") << stats;
  EXPECT_EQ(field(stats, "cells_from_store"), "3");  // base + two cells
}

TEST(ServiceServe, SigkillMidComputeLeavesNoTornRecordsAndReplays) {
  const std::string store = freshPath("svc_kill_store");
  ASSERT_EQ(::mkdir(store.c_str(), 0755), 0);
  std::vector<std::string> requests;
  for (int i = 1; i <= 4; ++i) {
    requests.push_back(
        "{\"op\": \"eval\", \"workload\": \"crc\", \"wp_kb\": " +
        std::to_string(i) + "}");
  }

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // A serving process mid-campaign; the parent will SIGKILL it at an
    // arbitrary instant (during prepare, a compute or a store publish —
    // every instant must be safe).
    TestService ts(7, 1, {}, {}, {"crc"}, store);
    for (const std::string& r : requests) (void)ts.service.handleLine(r);
    std::_Exit(0);
  }
  ::usleep(400 * 1000);
  ::kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);

  // Crash-only promise #1: whatever instant the kill hit, the store
  // holds no torn record — at worst stale lease/tmp litter.
  driver::FsckOptions options;
  options.dir = store;
  std::ostringstream report_out;
  driver::FsckReport report = driver::fsckStore(options, report_out);
  EXPECT_TRUE(report.dir_ok) << report_out.str();
  EXPECT_EQ(report.damaged, 0u) << report_out.str();

  // fsck --remove clears the litter the kill left behind...
  options.remove = true;
  (void)driver::fsckStore(options, report_out);

  // ...and promise #2: a restarted service replays the same requests to
  // completion, reusing every record the victim managed to publish.
  TestService ts(7, 1, {}, {}, {"crc"}, store);
  for (const std::string& r : requests) {
    EXPECT_EQ(fate(ts.service.handleLine(r)), "served");
  }
  std::ostringstream after_out;
  options.remove = false;
  report = driver::fsckStore(options, after_out);
  EXPECT_EQ(report.damaged, 0u) << after_out.str();
  EXPECT_EQ(report.stale_leases, 0u) << after_out.str();
  EXPECT_GE(report.healthy, 5u) << after_out.str();  // base + 4 cells
}

}  // namespace
}  // namespace wp
