#include "driver/service.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "driver/autotune.hpp"
#include "driver/checkpoint.hpp"
#include "layout/strategy.hpp"
#include "support/ensure.hpp"
#include "support/number.hpp"
#include "support/socket.hpp"

namespace wp::driver {

namespace {

// ---- reply rendering ------------------------------------------------
// Replies are flat one-line JSON objects built by hand so their bytes
// are a pure function of the request and the (deterministic) result:
// doubles render with %.17g (round-trip exact), and no volatile field
// (attempts, wall-clock, worker ids) ever appears — the restart smoke
// diffs replies across a SIGKILL byte for byte.

void addKey(std::string& out, const char* key) {
  if (out.size() > 1) out += ", ";
  out += '"';
  out += key;
  out += "\": ";
}

void addStr(std::string& out, const char* key, const std::string& value) {
  addKey(out, key);
  out += '"';
  out += jsonEscape(value);
  out += '"';
}

void addNum(std::string& out, const char* key, u64 value) {
  addKey(out, key);
  out += std::to_string(value);
}

void addDbl(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  addKey(out, key);
  out += buf;
}

void addBool(std::string& out, const char* key, bool value) {
  addKey(out, key);
  out += value ? "true" : "false";
}

std::string sealed(std::string out) {
  out += '}';
  return out;
}

/// Was this quarantine a deadline kill? Both watchdog paths — the
/// in-process instruction-budget hook and the isolated worker's
/// parent-side timer — tag their SimError with the budget knob's name.
bool isDeadlineError(const std::string& error) {
  return error.find("WP_CELL_TIMEOUT_MS") != std::string::npos;
}

bool parseSchemeName(const std::string& name, cache::Scheme& out) {
  for (const cache::Scheme s :
       {cache::Scheme::kBaseline, cache::Scheme::kWayPlacement,
        cache::Scheme::kWayMemoization, cache::Scheme::kWayPrediction}) {
    if (name == cache::schemeName(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

}  // namespace

ServiceConfig ServiceConfig::fromEnv() {
  ServiceConfig c;
  const char* socket = std::getenv("WP_SERVE_SOCKET");
  if (socket != nullptr && *socket != '\0') c.socket_path = socket;
  c.queue_limit = static_cast<unsigned>(envUnsigned(
      "WP_SERVE_QUEUE", c.queue_limit, 1, 4096, "admission-queue capacity"));
  return c;
}

// ---- request model --------------------------------------------------

/// One validated request. Geometry and spec carry their defaults (the
/// paper's 32 KB / 32-way / 32 B cache, the way-placement scheme with
/// an 8 KB area under the default layout strategy) so a minimal
/// `{"op": "eval", "workload": ...}` prices the paper's headline cell.
struct SweepService::Request {
  std::string op;
  std::string id;
  std::string workload;  ///< eval/recommend target
  cache::CacheGeometry icache;
  SchemeSpec spec;
  bool compute = false;  ///< eval/suite/recommend: goes through admission
};

/// One accepted client connection. The poll thread owns fd lifetime and
/// the input buffer; workers only write replies, serialized by
/// write_mutex and gated on `open` so a reply racing a disconnect hits
/// a closed flag, never a recycled fd.
struct SweepService::Connection {
  int fd = -1;
  std::string inbuf;
  std::mutex write_mutex;
  bool open = true;  ///< guarded by write_mutex
};

SweepService::SweepService(ServiceConfig config, SweepExecutor& suite,
                           ShutdownLatch& latch)
    : config_(std::move(config)), suite_(suite), latch_(latch) {}

bool SweepService::parseRequest(const std::string& line, Request& req,
                                std::string& reply) {
  const auto fail = [&](const std::string& message) {
    std::string out = "{";
    if (!req.id.empty()) addStr(out, "id", req.id);
    if (!req.op.empty()) addStr(out, "op", req.op);
    addStr(out, "fate", "error");
    addStr(out, "error", message);
    reply = sealed(std::move(out));
    return false;
  };

  std::map<std::string, JsonToken> tokens;
  if (!parseFlatJsonLine(line, tokens)) {
    return fail("malformed request: not a flat one-line JSON object");
  }

  const auto strField = [&](const char* key, std::string& out,
                            std::string& error) {
    const auto it = tokens.find(key);
    if (it == tokens.end()) return true;
    if (!it->second.is_string) {
      error = std::string("field '") + key + "' must be a JSON string";
      return false;
    }
    out = it->second.text;
    return true;
  };
  const auto numField = [&](const char* key, u64 min, u64 max, u64& out,
                            std::string& error) {
    const auto it = tokens.find(key);
    if (it == tokens.end()) return true;
    const std::string& text = it->second.text;
    const std::optional<u64> v =
        it->second.is_string ? std::nullopt
                             : parseUnsigned(text, /*hex=*/false);
    if (!v || *v < min || *v > max) {
      error = std::string("field '") + key + "' ('" + text +
              "') must be an integer in [" + std::to_string(min) + ", " +
              std::to_string(max) + "]";
      return false;
    }
    out = *v;
    return true;
  };

  std::string error;
  // id and op first so even rejections echo the request's identity.
  if (!strField("id", req.id, error)) return fail(error);
  if (!strField("op", req.op, error)) return fail(error);
  if (req.op.empty()) {
    return fail("missing required field 'op' (one of eval, suite, "
                "recommend, health, stats, drain)");
  }

  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"eval",
       {"op", "id", "seed", "workload", "icache_kb", "ways", "line_bytes",
        "scheme", "wp_kb", "layout", "fault"}},
      {"suite",
       {"op", "id", "seed", "icache_kb", "ways", "line_bytes", "scheme",
        "wp_kb", "layout", "fault"}},
      {"recommend", {"op", "id", "seed", "workload", "layout"}},
      {"health", {"op", "id", "seed"}},
      {"stats", {"op", "id", "seed"}},
      {"drain", {"op", "id", "seed"}},
  };
  const auto allowed = kAllowed.find(req.op);
  if (allowed == kAllowed.end()) {
    return fail("unknown op '" + req.op + "' (expected eval, suite, "
                "recommend, health, stats or drain)");
  }
  for (const auto& [key, value] : tokens) {
    if (allowed->second.count(key) == 0) {
      return fail("unknown field '" + key + "' for op '" + req.op + "'");
    }
  }

  // An explicit seed must match the daemon's: silently serving another
  // seed's cells would poison the caller's experiment identity.
  u64 seed = suite_.runner().seed();
  if (!numField("seed", 0, ~0ull, seed, error)) return fail(error);
  if (seed != suite_.runner().seed()) {
    return fail("seed mismatch: this daemon runs seed " +
                std::to_string(suite_.runner().seed()) +
                "; start another instance for seed " + std::to_string(seed));
  }

  req.compute =
      req.op == "eval" || req.op == "suite" || req.op == "recommend";
  if (!req.compute) return true;

  if (!strField("workload", req.workload, error)) return fail(error);
  if (req.op != "suite") {
    if (req.workload.empty()) {
      return fail("op '" + req.op + "' requires field 'workload'");
    }
    bool known = false;
    for (const PreparedWorkload& p : suite_.prepared()) {
      if (p.name == req.workload) known = true;
    }
    if (!known) {
      std::string names;
      for (const PreparedWorkload& p : suite_.prepared()) {
        names += names.empty() ? "" : ", ";
        names += p.name;
      }
      return fail("unknown workload '" + req.workload +
                  "' (this daemon prepared: " + names + ")");
    }
  }

  if (req.op == "recommend") {
    req.spec.layout = layout::defaultStrategyName();
    if (!strField("layout", req.spec.layout, error)) return fail(error);
    try {
      (void)layout::resolveStrategy(req.spec.layout);
    } catch (const SimError& e) {
      return fail(std::string("field 'layout': ") + e.what());
    }
    return true;
  }

  // eval/suite: geometry, scheme and scheme knobs.
  u64 icache_kb = 32, ways = 32, line_bytes = 32;
  if (!numField("icache_kb", 1, 1 << 16, icache_kb, error)) {
    return fail(error);
  }
  if (!numField("ways", 1, 1 << 12, ways, error)) return fail(error);
  if (!numField("line_bytes", 4, 1 << 16, line_bytes, error)) {
    return fail(error);
  }
  req.icache.size_bytes = static_cast<u32>(icache_kb * 1024);
  req.icache.line_bytes = static_cast<u32>(line_bytes);
  req.icache.ways = static_cast<u32>(ways);
  try {
    req.icache.validate();
  } catch (const SimError& e) {
    return fail(e.what());
  }

  std::string scheme = cache::schemeName(cache::Scheme::kWayPlacement);
  if (!strField("scheme", scheme, error)) return fail(error);
  if (!parseSchemeName(scheme, req.spec.scheme)) {
    return fail("unknown scheme '" + scheme + "' (expected baseline, "
                "way-placement, way-memoization or way-prediction)");
  }

  const bool is_wp = req.spec.scheme == cache::Scheme::kWayPlacement;
  u64 wp_kb = 8;
  if (!numField("wp_kb", 0, 1 << 20, wp_kb, error)) return fail(error);
  std::string layout;
  if (!strField("layout", layout, error)) return fail(error);
  if (!is_wp && (tokens.count("wp_kb") != 0 || !layout.empty())) {
    return fail("fields 'wp_kb' and 'layout' are only valid for scheme "
                "'way-placement'");
  }
  if (is_wp) {
    req.spec.wp_area_bytes = static_cast<u32>(wp_kb * 1024);
    req.spec.layout =
        layout.empty() ? layout::defaultStrategyName() : layout;
    try {
      (void)layout::resolveStrategy(req.spec.layout);
    } catch (const SimError& e) {
      return fail(std::string("field 'layout': ") + e.what());
    }
  }

  std::string fault;
  if (!strField("fault", fault, error)) return fail(error);
  if (!fault.empty()) {
    if (req.spec.scheme == cache::Scheme::kBaseline) {
      return fail("field 'fault' is not valid for scheme 'baseline' (a "
                  "faulted baseline would poison every normalization)");
    }
    fault::CellFault kind = fault::CellFault::kNone;
    u32 failures = 1;
    if (!fault::parseCellFault(fault, "fault", kind, failures, error)) {
      return fail(error);
    }
    // Admission control against hostile faults: a crash/hang cell in a
    // non-isolating daemon would SIGKILL or wedge the service itself,
    // and a hang without a watchdog wedges a worker forever even under
    // isolation. Both are the client's problem to fix, not ours to die
    // of.
    const SupervisorConfig& sup = suite_.supervisor().config();
    if ((kind == fault::CellFault::kCrash ||
         kind == fault::CellFault::kHang) &&
        !sup.isolate) {
      return fail("fault '" + fault + "' requires process isolation; this "
                  "daemon runs without WP_ISOLATE=1 and would die with "
                  "the cell");
    }
    if (kind == fault::CellFault::kHang && sup.cell_timeout_ms == 0) {
      return fail("fault 'hang' requires a deadline (start the daemon "
                  "with WP_CELL_TIMEOUT_MS) or the cell would wedge a "
                  "worker forever");
    }
    req.spec.fault.cell_fault = kind;
    req.spec.fault.cell_fault_failures = failures;
  }
  return true;
}

std::string SweepService::handleLine(const std::string& line) {
  Request req;
  std::string reply;
  if (!parseRequest(line, req, reply)) {
    suite_.metrics().counter("serve.invalid").add();
    return reply;
  }
  return execute(req);
}

std::string SweepService::execute(const Request& req) {
  std::string out = "{";
  if (!req.id.empty()) addStr(out, "id", req.id);
  addStr(out, "op", req.op);
  if (req.op == "eval") return runEval(req);
  if (req.op == "suite") return runSuiteRow(req);
  if (req.op == "recommend") return runRecommend(req);
  if (req.op == "health") return healthReply(req);
  if (req.op == "stats") return statsReply(req);
  WP_ENSURE(req.op == "drain", "unvalidated op reached execute()");
  latch_.trigger(SIGTERM);
  addStr(out, "fate", "ok");
  addBool(out, "draining", true);
  return sealed(std::move(out));
}

std::string SweepService::runEval(const Request& req) {
  const PreparedWorkload* prepared = nullptr;
  for (const PreparedWorkload& p : suite_.prepared()) {
    if (p.name == req.workload) prepared = &p;
  }
  WP_ENSURE(prepared != nullptr, "unvalidated workload reached runEval()");
  const std::string key =
      SweepExecutor::keyOf(req.workload, req.icache, req.spec);
  // Baseline first: a quarantined baseline denies the normalization for
  // every scheme sharing it, so its error is the one worth reporting
  // when both fail.
  const SweepExecutor::CellView base = suite_.tryRun(
      *prepared, req.icache, SchemeSpec::baselineFor(req.spec));
  const SweepExecutor::CellView cell =
      suite_.tryRun(*prepared, req.icache, req.spec);

  std::string out = "{";
  if (!req.id.empty()) addStr(out, "id", req.id);
  addStr(out, "op", req.op);
  addStr(out, "key", key);
  if (base.quarantined || cell.quarantined) {
    const std::string& error =
        base.quarantined ? *base.error : *cell.error;
    addStr(out, "fate", isDeadlineError(error) ? "deadline" : "quarantined");
    addStr(out, "error", error);
    return sealed(std::move(out));
  }
  const Normalized n = normalize(*cell.result, *base.result, req.workload);
  addStr(out, "fate", "served");
  addDbl(out, "icache_energy", n.icache_energy);
  addDbl(out, "total_energy", n.total_energy);
  addDbl(out, "delay", n.delay);
  addDbl(out, "ed_product", n.ed_product);
  addNum(out, "cycles", cell.result->stats.cycles);
  addNum(out, "instructions", cell.result->stats.instructions);
  return sealed(std::move(out));
}

std::string SweepService::runSuiteRow(const Request& req) {
  // One checked average per headline metric; the first call prices the
  // whole row (every workload plus shared baselines) across the
  // executor's pool, the rest read the memo.
  const auto avg = [&](double Normalized::*metric) {
    return suite_.averageNormalizedChecked(
        req.icache, req.spec,
        [metric](const Normalized& n) { return n.*metric; });
  };
  const SweepExecutor::SuiteAverage icache = avg(&Normalized::icache_energy);
  const SweepExecutor::SuiteAverage total = avg(&Normalized::total_energy);
  const SweepExecutor::SuiteAverage delay = avg(&Normalized::delay);
  const SweepExecutor::SuiteAverage ed = avg(&Normalized::ed_product);

  std::string out = "{";
  if (!req.id.empty()) addStr(out, "id", req.id);
  addStr(out, "op", req.op);
  if (icache.included == 0) {
    // The whole row quarantined: no mean exists to serve. Surface the
    // first quarantine (deterministic: keys sort identically everywhere)
    // so the client sees *why* instead of a row of QUAR.
    std::string error = "every cell of the row quarantined";
    for (const auto& q : suite_.quarantined()) {
      error = q.error;
      break;
    }
    addStr(out, "fate", isDeadlineError(error) ? "deadline" : "quarantined");
    addStr(out, "error", error);
    return sealed(std::move(out));
  }
  addStr(out, "fate", "served");
  addDbl(out, "icache_energy", icache.mean);
  addDbl(out, "total_energy", total.mean);
  addDbl(out, "delay", delay.mean);
  addDbl(out, "ed_product", ed.mean);
  addNum(out, "included", icache.included);
  addNum(out, "excluded", icache.excluded);
  return sealed(std::move(out));
}

std::string SweepService::runRecommend(const Request& req) {
  const PreparedWorkload* prepared = nullptr;
  for (const PreparedWorkload& p : suite_.prepared()) {
    if (p.name == req.workload) prepared = &p;
  }
  WP_ENSURE(prepared != nullptr,
            "unvalidated workload reached runRecommend()");
  std::string out = "{";
  if (!req.id.empty()) addStr(out, "id", req.id);
  addStr(out, "op", req.op);
  try {
    const WpAreaRecommendation rec =
        recommendWpArea(*prepared, req.spec.layout);
    addStr(out, "fate", "served");
    addStr(out, "layout", req.spec.layout);
    addNum(out, "wp_bytes", rec.bytes);
    addDbl(out, "coverage", rec.coverage);
  } catch (const SimError& e) {
    addStr(out, "fate", "error");
    addStr(out, "error", e.what());
  }
  return sealed(std::move(out));
}

std::string SweepService::healthReply(const Request& req) {
  std::size_t depth = 0;
  unsigned in_flight = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    depth = queue_.size();
    in_flight = in_flight_;
  }
  std::string out = "{";
  if (!req.id.empty()) addStr(out, "id", req.id);
  addStr(out, "op", req.op);
  addStr(out, "fate", "ok");
  addNum(out, "seed", suite_.runner().seed());
  addNum(out, "workloads", suite_.prepared().size());
  addNum(out, "jobs", suite_.jobs());
  addNum(out, "queue_depth", depth);
  addNum(out, "queue_limit", config_.queue_limit);
  addNum(out, "in_flight", in_flight);
  addNum(out, "deadline_ms", suite_.supervisor().config().cell_timeout_ms);
  addBool(out, "isolate", suite_.supervisor().config().isolate);
  addBool(out, "draining", latch_.requested());
  return sealed(std::move(out));
}

std::string SweepService::statsReply(const Request& req) {
  MetricsRegistry& m = suite_.metrics();
  std::string out = "{";
  if (!req.id.empty()) addStr(out, "id", req.id);
  addStr(out, "op", req.op);
  addStr(out, "fate", "ok");
  addNum(out, "cells_computed", m.counter("cells.computed").value());
  addNum(out, "cells_from_store", m.counter("cells.from_store").value());
  addNum(out, "cells_quarantined", m.counter("cells.quarantined").value());
  addNum(out, "memo_hits", m.counter("memo.hits").value());
  addNum(out, "store_hits", m.counter("store.hits").value());
  addNum(out, "store_misses", m.counter("store.misses").value());
  addNum(out, "requests_admitted", m.counter("serve.admitted").value());
  addNum(out, "requests_shed", m.counter("serve.shed").value());
  addNum(out, "requests_invalid", m.counter("serve.invalid").value());
  addNum(out, "requests_served", m.counter("serve.served").value());
  return sealed(std::move(out));
}

// ---- socket serving -------------------------------------------------

void SweepService::sendReply(const std::shared_ptr<Connection>& conn,
                             std::string reply) {
  reply += '\n';
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (!conn->open) return;
  // A peer that hung up before its reply is not an error worth acting
  // on: the poll loop reaps the connection on its next read.
  (void)support::sendAll(conn->fd, reply);
}

void SweepService::dispatchLine(const std::shared_ptr<Connection>& conn,
                                const std::string& line) {
  Request parsed;
  std::string reply;
  if (!parseRequest(line, parsed, reply)) {
    suite_.metrics().counter("serve.invalid").add();
    sendReply(conn, std::move(reply));
    return;
  }
  auto req = std::make_shared<Request>(std::move(parsed));
  if (!req->compute) {
    // Control ops answer on the poll thread: health/stats/drain must
    // work instantly even when every worker is busy — that is the
    // point of a health endpoint.
    sendReply(conn, execute(*req));
    return;
  }
  std::string out = "{";
  if (!req->id.empty()) addStr(out, "id", req->id);
  addStr(out, "op", req->op);
  if (latch_.requested()) {
    addStr(out, "fate", "draining");
    addStr(out, "error", "service is draining; no new work admitted");
    sendReply(conn, sealed(std::move(out)));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_.size() >= config_.queue_limit) {
      suite_.metrics().counter("serve.shed").add();
      addStr(out, "fate", "overloaded");
      addNum(out, "retry_after_ms", config_.retry_after_ms);
      sendReply(conn, sealed(std::move(out)));
      return;
    }
    queue_.push_back({conn, std::move(req)});
  }
  suite_.metrics().counter("serve.admitted").add();
  queue_cv_.notify_one();
}

void SweepService::workerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and nothing left to flush
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    std::string reply = execute(*job.req);
    sendReply(job.conn, std::move(reply));
    suite_.metrics().counter("serve.served").add();
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --in_flight_;
    }
  }
}

int SweepService::serve() {
  std::string error;
  int listen_fd = support::listenUnix(config_.socket_path, 64, error);
  if (listen_fd < 0) {
    std::fprintf(stderr, "error: wp_serve: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "[wp_serve] listening on %s (seed %llu, %zu workloads, %u "
               "jobs, queue %u, deadline %llu ms%s)\n",
               config_.socket_path.c_str(),
               static_cast<unsigned long long>(suite_.runner().seed()),
               suite_.prepared().size(), suite_.jobs(), config_.queue_limit,
               static_cast<unsigned long long>(
                   suite_.supervisor().config().cell_timeout_ms),
               suite_.supervisor().config().isolate ? ", isolated" : "");

  const unsigned workers = std::max(1u, suite_.jobs());
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    pool.emplace_back([this] { workerLoop(); });
  }

  std::map<int, std::shared_ptr<Connection>> conns;
  const auto closeConn = [&](int fd) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;
    {
      std::lock_guard<std::mutex> lock(it->second->write_mutex);
      it->second->open = false;
      ::close(fd);
    }
    conns.erase(it);
  };

  bool listener_open = true;
  for (;;) {
    const bool draining = latch_.requested();
    if (draining && listener_open) {
      // Drain step 1: stop the world from finding us. Close + unlink
      // so new connects fail fast instead of queueing in the backlog.
      ::close(listen_fd);
      ::unlink(config_.socket_path.c_str());
      listener_open = false;
    }
    if (draining) {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.empty() && in_flight_ == 0) break;
    }

    std::vector<pollfd> fds;
    fds.push_back({latch_.pollFd(), POLLIN, 0});
    if (listener_open) fds.push_back({listen_fd, POLLIN, 0});
    for (const auto& [fd, conn] : conns) fds.push_back({fd, POLLIN, 0});
    // 100 ms cap: drain completion (workers emptying the queue) has no
    // fd to signal through, so the loop re-checks on a short tick.
    const int n = ::poll(fds.data(), fds.size(), 100);
    if (n < 0 && errno != EINTR) {
      std::fprintf(stderr, "error: wp_serve: poll(): %s\n",
                   std::strerror(errno));
      break;
    }
    if (n <= 0) continue;

    if (listener_open) {
      const pollfd& lp = fds[1];
      if ((lp.revents & POLLIN) != 0) {
        for (;;) {
          const int cfd = ::accept(listen_fd, nullptr, nullptr);
          if (cfd < 0) break;  // EAGAIN: backlog drained
          auto conn = std::make_shared<Connection>();
          conn->fd = cfd;
          conns.emplace(cfd, std::move(conn));
        }
      }
    }

    std::vector<int> dead;
    for (const pollfd& pfd : fds) {
      const auto it = conns.find(pfd.fd);
      if (it == conns.end()) continue;
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::shared_ptr<Connection>& conn = it->second;
      char chunk[4096];
      const ssize_t got = ::read(pfd.fd, chunk, sizeof chunk);
      if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      if (got <= 0) {
        dead.push_back(pfd.fd);
        continue;
      }
      conn->inbuf.append(chunk, static_cast<std::size_t>(got));
      for (;;) {
        const std::size_t nl = conn->inbuf.find('\n');
        if (nl == std::string::npos) break;
        std::string line = conn->inbuf.substr(0, nl);
        conn->inbuf.erase(0, nl + 1);
        if (line.empty()) continue;
        dispatchLine(conn, line);
      }
      if (conn->inbuf.size() > kMaxLineBytes) {
        // Admission control at the byte level: an unbounded "line" is
        // disconnected, not buffered until the daemon OOMs.
        suite_.metrics().counter("serve.invalid").add();
        sendReply(conn,
                  "{\"fate\": \"error\", \"error\": \"request line exceeds " +
                      std::to_string(kMaxLineBytes) + " bytes\"}");
        dead.push_back(pfd.fd);
      }
    }
    for (const int fd : dead) closeConn(fd);
  }

  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : pool) t.join();
  while (!conns.empty()) closeConn(conns.begin()->first);
  if (listener_open) {
    ::close(listen_fd);
    ::unlink(config_.socket_path.c_str());
  }
  std::fprintf(stderr, "[wp_serve] drained: all admitted work flushed\n");
  return 0;
}

}  // namespace wp::driver
