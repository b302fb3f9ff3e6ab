// serve_mixed: a wp_serve daemon with fewer workers than client
// connections, under a closed loop of eval requests from one client
// process (each connection sends the stream's next request only after
// its reply).
//
// The stream is the cell reads of two layout autotune searches
// (driver::autotuneLayout with its default config, 32 KB 32-way
// I-cache) sent to the daemon side by side, one read per eval request.
// One search is bench/autotune_layout's, at the 1 KB way-placement area,
// whose cells an earlier session already published to the store (a
// dashboard re-reading it). The other runs at the eval op's default
// 8 KB area; an ed_product search at 1 KB would price the very same
// specs and add no writes. Each search reads every cell it prices three times, as
// autotuneLayout does over its executor: pricing (runAll), the suite
// average (averageNormalizedChecked) and the per-workload read-out. So
// the classes below come out of the searches, not out of chosen ratios:
//   store  first read of a cell the earlier session published
//          (ResultStore::open and digest verification: reads)
//   fresh  first read of any other cell (simulated, then published with
//          fsync before the reply: writes)
//   hit    every later read (the memo only; it may queue behind the
//          compute of its first read)
//
// A pass is one fresh daemon on a fresh copy of the set-up store: spawn,
// wait for the first health reply (a set-up sample), the timed closed
// loop, the stats op and a drain. Every reply is checked against the
// same cell computed in-process by the search that priced it.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "driver/autotune.hpp"
#include "driver/checkpoint.hpp"
#include "driver/service.hpp"
#include "driver/sweep.hpp"
#include "harness.hpp"
#include "support/socket.hpp"

extern char** environ;

namespace wpbench {
namespace {

namespace fs = std::filesystem;
using wp::cache::CacheGeometry;
using wp::driver::SchemeSpec;
using wp::driver::SweepExecutor;

using wp::driver::AutotuneConfig;
using wp::driver::AutotuneResult;

/// The repository's default three-workload subset (bench_multiprog,
/// resilience_sweep), so a pass stays a few seconds long.
const std::vector<std::string> kServePool = {"crc", "sha", "bitcount"};
/// bench/autotune_layout's I-cache and way-placement area, and the eval
/// op's default area.
const CacheGeometry kTuneICache{32 * 1024, 32, 32};
constexpr u32 kTuneAreaBytes = 1024, kDefaultAreaBytes = 8 * 1024;
constexpr double kServePassSeconds = 3.0;
/// Closed-loop requests a run needs at least, so that p99 has more than
/// ten samples beyond it.
constexpr std::size_t kMinSamples = 1100;
constexpr unsigned kSetupSamples = 15;

enum Klass : u8 { kHit, kStore, kFresh, kMalformed };
const char* const kKlassName[] = {"hit", "store", "fresh", "malformed"};

struct EvalCell {
  std::string request;   ///< the request line
  std::string expected;  ///< "fate|icache|total|delay|ed|cycles|insts"
};

struct Request {
  Klass klass;
  const EvalCell* cell;  ///< null for the malformed request
};

std::string evalLine(const std::string& workload, u32 area_bytes,
                     const std::string& layout) {
  return JsonObject()
      .add("op", std::string("eval"))
      .add("workload", workload)
      .add("icache_kb", kTuneICache.size_bytes / 1024.0)
      .add("ways", kTuneICache.ways)
      .add("line_bytes", kTuneICache.line_bytes)
      .add("scheme", std::string("way-placement"))
      .add("wp_kb", area_bytes / 1024.0)
      .add("layout", layout)
      .render();
}

/// The reply fields that carry the cell's result, joined for comparison.
std::string resultOf(const std::string& reply) {
  std::map<std::string, wp::driver::JsonToken> t;
  if (!wp::driver::parseFlatJsonLine(reply, t)) return "unparsable reply";
  std::string out = t.count("fate") ? t["fate"].text : "no fate";
  for (const char* k : {"icache_energy", "total_energy", "delay", "ed_product",
                        "cycles", "instructions"}) {
    out += "|" + (t.count(k) ? t[k].text : std::string("-"));
  }
  return out;
}

std::string expectedOf(SweepExecutor& suite, const wp::driver::PreparedWorkload& p,
                       const SchemeSpec& spec) {
  const auto base = suite.tryRun(p, kTuneICache, SchemeSpec::baselineFor(spec));
  const auto cell = suite.tryRun(p, kTuneICache, spec);
  if (base.quarantined || cell.quarantined) return "quarantined";
  const wp::driver::Normalized n =
      wp::driver::normalize(*cell.result, *base.result, p.name);
  return "served|" + num(n.icache_energy) + "|" + num(n.total_energy) + "|" +
         num(n.delay) + "|" + num(n.ed_product) + "|" +
         std::to_string(cell.result->stats.cycles) + "|" +
         std::to_string(cell.result->stats.instructions);
}

/// One client connection: a blocking request/reply exchange.
class Client {
 public:
  explicit Client(const std::string& socket) {
    std::string error;
    fd_ = wp::support::connectUnix(socket, error);
    if (fd_ < 0) throw std::runtime_error("connect " + socket + ": " + error);
    reader_ = std::make_unique<wp::support::LineReader>(fd_);
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::string call(const std::string& line) {
    std::string reply;
    if (!wp::support::sendAll(fd_, line + "\n") ||
        !reader_->next(reply, wp::driver::SweepService::kMaxLineBytes)) {
      throw std::runtime_error("daemon hung up");
    }
    return reply;
  }

 private:
  int fd_ = -1;
  std::unique_ptr<wp::support::LineReader> reader_;
};

/// A wp_serve child process. The destructor kills and reaps it if it is
/// still running, so no path out of a pass leaves a daemon behind.
class Daemon {
 public:
  Daemon(const Options& opt, const std::string& dir, unsigned workers)
      : socket_(dir + "/serve.sock") {
    if (socket_.size() >= 100) throw std::runtime_error("socket path too long: " + socket_);
    const std::string bin = fs::absolute(opt.serve_bin).string();
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "WP_", 3) != 0) env.emplace_back(*e);
    }
    std::string pool;
    for (const std::string& n : kServePool) pool += (pool.empty() ? "" : ",") + n;
    env.push_back("WP_STORE=store");
    env.push_back("WP_SERVE_SOCKET=serve.sock");
    env.push_back("WP_JOBS=" + std::to_string(workers));
    env.push_back("WP_SEED=" + std::to_string(opt.seed));
    env.push_back("WP_BENCH_WORKLOADS=" + pool);
    std::vector<char*> envp;
    for (std::string& s : env) envp.push_back(s.data());
    envp.push_back(nullptr);
    const std::string log = dir + "/serve.log";
    start_ = nowSeconds();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The daemon must not outlive a harness that is killed outright.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      if (::chdir(dir.c_str()) != 0) ::_exit(127);
      char* argv[] = {const_cast<char*>(bin.c_str()), nullptr};
      ::execve(bin.c_str(), argv, envp.data());
      ::_exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// Seconds from spawn to the first `health` reply.
  double waitHealthy() {
    const double deadline = start_ + 120.0;
    while (nowSeconds() < deadline) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("wp_serve exited during start-up (see serve.log)");
      }
      try {
        Client c(socket_);
        if (resultOf(c.call(R"({"op": "health"})")).rfind("ok", 0) == 0) {
          return nowSeconds() - start_;
        }
      } catch (const std::runtime_error&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw std::runtime_error("wp_serve never became healthy");
  }

  /// User + system CPU of the daemon so far, in seconds.
  [[nodiscard]] double cpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)), {});
    // Fields after the parenthesised command name; utime/stime are the
    // 14th and 15th fields of the whole line.
    std::istringstream rest(text.substr(text.rfind(')') + 2));
    std::string field;
    double utime = 0, stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::stod(field);
      if (i == 15) stime = std::stod(field);
    }
    return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// Peak resident set of the daemon, in MB.
  [[nodiscard]] double peakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
  }

  /// Graceful drain; falls back to SIGKILL after 30 s.
  void drain() {
    try {
      Client c(socket_);
      (void)c.call(R"({"op": "drain"})");
    } catch (const std::runtime_error&) {
    }
    const double deadline = nowSeconds() + 30.0;
    while (nowSeconds() < deadline) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  double start_ = 0.0;
};

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  std::vector<double> latency_ms;
  std::vector<std::string> replies;
  std::map<std::string, double> stats;
  double records_written = 0.0;
};

std::size_t recordFiles(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() != ".lock") ++n;
  }
  return n;
}

/// The cell reads autotuneLayout made over @p suite during search
/// @p r at @p area_bytes, in order, by cell key; adds each new cell to
/// @p cells with the reply the daemon must give for it.
std::vector<std::string> searchReads(SweepExecutor& suite, const AutotuneResult& r,
                                     u32 area_bytes,
                                     std::map<std::string, EvalCell>& cells) {
  const auto read = [&](const wp::driver::PreparedWorkload& p,
                        const std::string& layout, std::vector<std::string>& reads) {
    SchemeSpec spec;
    spec.scheme = wp::cache::Scheme::kWayPlacement;
    spec.wp_area_bytes = area_bytes;
    spec.layout = layout;
    const std::string key = SweepExecutor::keyOf(p.name, kTuneICache, spec);
    if (cells.count(key) == 0) {
      cells[key] = {evalLine(p.name, area_bytes, layout), expectedOf(suite, p, spec)};
    }
    reads.push_back(key);
  };
  // autotuneLayout reads a spec's suite average only after runAll has
  // priced it. A closed loop has no such barrier, so every pricing read
  // goes first and no average read overtakes its cell's compute.
  std::vector<std::string> reads;
  for (int pricing_then_average = 0; pricing_then_average < 2; ++pricing_then_average) {
    for (const wp::driver::AutotuneStep& step : r.trajectory) {
      for (const auto& p : suite.prepared()) read(p, step.spec, reads);
    }
  }
  for (const auto& p : suite.prepared()) {
    for (const wp::driver::AutotuneStep& step : r.trajectory) read(p, step.spec, reads);
  }
  return reads;
}

PassResult servePass(const Options& opt, unsigned index,
                     const std::string& seed_store,
                     const std::vector<Request>& requests, Tracer& tracer,
                     RunOutput& out) {
  const std::string dir = opt.work_dir + "/pass" + std::to_string(index);
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy(seed_store, dir + "/store", fs::copy_options::recursive);
  const std::size_t seeded = recordFiles(dir + "/store");

  PassResult r;
  const unsigned workers = std::max(1u, opt.jobs / 2);
  Daemon daemon(opt, dir, workers);
  out.setup_s.push_back(daemon.waitHealthy());

  const unsigned connections = std::max(1u, opt.jobs);
  r.latency_ms.assign(requests.size(), 0.0);
  r.replies.assign(requests.size(), "");
  std::atomic<std::size_t> next{0};
  const int root = tracer.open("serve.pass", index, -1);
  const double cpu0 = daemon.cpuSeconds();
  const double t0 = nowSeconds();
  parallelFor(connections, connections, [&](std::size_t) {
    Client client(daemon.socket());
    for (std::size_t i = next++; i < requests.size(); i = next++) {
      const Request& q = requests[i];
      const std::string line =
          q.cell != nullptr ? q.cell->request
                            : R"({"op": "eval", "workload": "no_such_workload"})";
      const int span = tracer.open(std::string("serve.request.") + kKlassName[q.klass], i, root);
      const double s0 = nowSeconds();
      r.replies[i] = resultOf(client.call(line));
      r.latency_ms[i] = (nowSeconds() - s0) * 1e3;
      tracer.finish(span);
    }
  });
  r.wall_s = nowSeconds() - t0;
  r.cpu_s = daemon.cpuSeconds() - cpu0;
  tracer.finish(root);

  {
    Client c(daemon.socket());
    std::map<std::string, wp::driver::JsonToken> t;
    if (wp::driver::parseFlatJsonLine(c.call(R"({"op": "stats"})"), t)) {
      for (const auto& [k, v] : t) {
        if (!v.is_string) r.stats[k] = std::stod(v.text);
      }
    }
  }
  r.rss_mb = daemon.peakRssMb();
  daemon.drain();
  r.records_written = static_cast<double>(recordFiles(dir + "/store") - seeded);
  fs::remove_all(dir);
  return r;
}

}  // namespace

void runServeMixed(const Options& opt, Tracer& tracer, RunOutput& out) {
  // Set-up, untimed: both searches in-process. The 1 KB search runs on an
  // executor that publishes to the seed store; the 8 KB search on one
  // without a store.
  const std::string seed_store = opt.work_dir + "/seed_store";
  fs::remove_all(seed_store);
  ::setenv("WP_STORE", seed_store.c_str(), 1);
  SweepExecutor stored(kServePool, wp::energy::EnergyParams{}, opt.seed, opt.jobs);
  ::unsetenv("WP_STORE");
  SweepExecutor unstored(kServePool, wp::energy::EnergyParams{}, opt.seed, opt.jobs);
  const AutotuneResult earlier =
      wp::driver::autotuneLayout(stored, kTuneICache, kTuneAreaBytes, AutotuneConfig{});
  const AutotuneResult second = wp::driver::autotuneLayout(
      unstored, kTuneICache, kDefaultAreaBytes, AutotuneConfig{});

  std::map<std::string, EvalCell> cells;
  const std::vector<std::string> earlier_reads =
      searchReads(stored, earlier, kTuneAreaBytes, cells);
  const std::set<std::string> published(earlier_reads.begin(), earlier_reads.end());
  const std::vector<std::string> second_reads =
      searchReads(unstored, second, kDefaultAreaBytes, cells);

  // The two searches side by side, one read each in turn.
  std::vector<Request> requests;
  std::set<std::string> seen;
  std::size_t fresh_cells = 0;
  for (std::size_t i = 0; i < std::max(earlier_reads.size(), second_reads.size());
       ++i) {
    for (const auto* reads : {&earlier_reads, &second_reads}) {
      if (i >= reads->size()) continue;
      const std::string& key = (*reads)[i];
      Klass klass = kHit;
      if (seen.insert(key).second) {
        klass = published.count(key) != 0 ? kStore : kFresh;
        fresh_cells += klass == kFresh ? 1 : 0;
      }
      requests.push_back({klass, &cells.at(key)});
    }
  }
  if (opt.inject_failure) requests.front() = {kMalformed, nullptr};
  std::size_t per_class[4] = {};
  for (const Request& q : requests) ++per_class[q.klass];
  std::fprintf(stderr,
               "[wpbench] serve_mixed: %zu + %zu search evals, %zu requests a pass "
               "(%zu hit, %zu store, %zu fresh)\n",
               earlier.trajectory.size(), second.trajectory.size(), requests.size(),
               per_class[kHit], per_class[kStore], per_class[kFresh]);

  const unsigned passes =
      opt.trace ? 2
                : static_cast<unsigned>(std::max(
                      {1.0, std::round(opt.seconds / kServePassSeconds),
                       std::ceil(static_cast<double>(kMinSamples) /
                                 static_cast<double>(requests.size()))}));
  Tracer untraced(false);
  std::vector<PassResult> results;
  for (unsigned pass = 0; pass < passes; ++pass) {
    // A traced run's first pass is untraced, for trace.overhead_pct.
    Tracer& t = opt.trace && pass == 0 ? untraced : tracer;
    results.push_back(servePass(opt, pass, seed_store, requests, t, out));
  }
  for (unsigned extra = passes; extra < kSetupSamples; ++extra) {
    const std::string dir = opt.work_dir + "/setup" + std::to_string(extra);
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::copy(seed_store, dir + "/store", fs::copy_options::recursive);
    Daemon daemon(opt, dir, std::max(1u, opt.jobs / 2));
    out.setup_s.push_back(daemon.waitHealthy());
    daemon.drain();
    fs::remove_all(dir);
  }

  std::vector<double> rss;
  for (const PassResult& r : results) {
    std::fprintf(stderr, "[wpbench] pass: %.3f s wall, %.2f s daemon CPU, %.1f MB peak RSS\n",
                 r.wall_s, r.cpu_s, r.rss_mb);
    rss.push_back(r.rss_mb);
    RunOutput::Pass p;
    p.wall_s = r.wall_s;
    p.cpu_s = r.cpu_s;
    p.cells = static_cast<double>(requests.size());
    out.passes.push_back(p);
    out.latency_ms.insert(out.latency_ms.end(), r.latency_ms.begin(),
                          r.latency_ms.end());
    out.attempted += requests.size();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Request& q = requests[i];
      if (q.cell == nullptr) {
        out.fail("malformed request answered '" + r.replies[i] + "'");
      } else if (r.replies[i] != q.cell->expected) {
        out.fail(std::string(kKlassName[q.klass]) + " reply differs from the " +
                 "in-process result: " + q.cell->request + " -> " + r.replies[i]);
      }
    }
    // A store read the daemon had to simulate was not a store read.
    const auto computed = r.stats.find("cells_computed");
    if (computed == r.stats.end() ||
        computed->second != static_cast<double>(fresh_cells)) {
      out.fail("daemon simulated " +
               (computed == r.stats.end() ? std::string("?") : num(computed->second)) +
               " cells; the stream has " + std::to_string(fresh_cells) + " fresh cells");
    }
  }

  out.peak_rss_mb = median(rss);  // one daemon per pass

  if (opt.trace) {
    const PassResult& traced = results.back();
    std::map<Klass, std::vector<double>> by_class;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      by_class[requests[i].klass].push_back(traced.latency_ms[i]);
    }
    out.layers["serve.hit_ms.p50"] = median(by_class[kHit]);
    out.layers["serve.store_ms.p50"] = median(by_class[kStore]);
    out.layers["serve.fresh_ms.p50"] = median(by_class[kFresh]);
    const auto stat = [&](const char* k) {
      const auto it = traced.stats.find(k);
      return it == traced.stats.end() ? 0.0 : it->second;
    };
    out.layers["serve.admitted"] = stat("requests_admitted");
    out.layers["serve.shed"] = stat("requests_shed");
    out.layers["serve.cells_computed"] = stat("cells_computed");
    out.layers["serve.memo_hits"] = stat("memo_hits");
    out.layers["store.hits"] = stat("store_hits");
    out.layers["store.records_written"] = traced.records_written;
    const double untraced_rps = requests.size() / results.front().wall_s;
    const double traced_rps = requests.size() / traced.wall_s;
    out.layers["trace.overhead_pct"] =
        (untraced_rps - traced_rps) / untraced_rps * 100.0;
    runLedger(opt, kServePool, tracer, out);
  }
  fs::remove_all(seed_store);
}

}  // namespace wpbench
