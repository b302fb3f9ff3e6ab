// Crash-only sweep evaluation service (the wp_serve daemon).
//
// Long evaluation campaigns — autotune searches, figure regeneration
// across many geometries, CI dashboards — keep re-paying suite
// preparation and process startup for every query. The service keeps
// one prepared SweepExecutor resident behind a Unix-domain socket and
// answers evaluation requests from its memo, then its result store,
// so a warm cell costs a socket round-trip instead of a process.
//
// Protocol: one flat one-line JSON object per message in each direction
// (the same shape the result store records and the worker pipe already
// speak — parseFlatJsonLine is the only parser). Requests name an op:
//
//   eval       price one (workload, geometry, scheme) cell, normalized
//              against its implied baseline
//   suite      price one scheme across the whole prepared suite and
//              return the checked suite averages (one figure row)
//   recommend  the dominant-block WP-area recommendation for one
//              workload under one layout (driver/autotune.hpp)
//   health     liveness + admission state (never touches the queue)
//   stats      executor/store/service counters
//   drain      begin graceful shutdown (same path as SIGTERM)
//
// Design rules (DESIGN.md §14):
//   crash-only    The daemon owns no durable state of its own: every
//                 computed cell is published to WP_STORE before its
//                 reply is sent, so SIGKILL at any instant loses at
//                 most in-flight replies and a restarted daemon
//                 re-serves every previously answered request
//                 byte-identically without recomputing.
//   admission     A bounded queue fronts the executor. A full queue
//                 sheds load with an `overloaded` reply carrying a
//                 retry_after_ms hint — the daemon never buffers
//                 unboundedly and never stalls its accept loop.
//   deadlines     The request deadline is the per-cell supervisor
//                 watchdog (WP_CELL_TIMEOUT_MS); a cell that blows its
//                 budget comes back as fate "deadline", and under
//                 WP_ISOLATE=1 the wedged worker process is killed and
//                 reaped.
//   degradation   Malformed or invalid requests get a tagged `error`
//                 reply, quarantined cells a `quarantined` reply —
//                 nothing a client sends can kill the daemon. Request
//                 faults that *would* (crash/hang cell faults without
//                 process isolation) are rejected at admission.
//   drain         SIGTERM (or the drain op) latches the process
//                 ShutdownLatch: the listener closes, queued and
//                 in-flight requests finish and flush their replies,
//                 new compute requests get a `draining` reply, and
//                 serve() returns 0.
//
// Environment knobs (strict like every WP_* knob — garbage exits 1):
//   WP_SERVE_SOCKET  socket path (default "wp_serve.sock")
//   WP_SERVE_QUEUE   admission-queue capacity (default 64, range
//                    [1, 4096])
#pragma once

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "driver/sweep.hpp"
#include "support/shutdown.hpp"

namespace wp::driver {

struct ServiceConfig {
  /// Unix-domain socket path (WP_SERVE_SOCKET). A stale socket file
  /// from a killed daemon is replaced, not an error (crash-only).
  std::string socket_path = "wp_serve.sock";
  /// Admission-queue capacity (WP_SERVE_QUEUE): compute requests beyond
  /// this are shed with an `overloaded` reply instead of being queued.
  unsigned queue_limit = 64;
  /// The retry hint an `overloaded` reply carries. Not an environment
  /// knob — a fixed hint keeps shed replies byte-identical.
  unsigned retry_after_ms = 250;

  /// Strict environment parse; malformed values exit 1 naming the knob.
  [[nodiscard]] static ServiceConfig fromEnv();
};

/// The daemon behind wp_serve: validates requests, admits them through
/// a bounded queue onto worker threads, and executes them against one
/// shared SweepExecutor. The executor's memo makes concurrent requests
/// for the same cell collapse to one compute (call_once per cell), and
/// its WP_STORE plumbing makes every reply durable before it is sent.
class SweepService {
 public:
  /// @p suite must outlive the service. @p latch is the process
  /// shutdown latch (install()ed by the daemon main); serve() watches
  /// its pollFd and the `drain` op trigger()s it, so signal-initiated
  /// and request-initiated drains share one path. The executor should
  /// be constructed *without* an interrupt latch: under drain the
  /// service finishes admitted work rather than quarantining it.
  SweepService(ServiceConfig config, SweepExecutor& suite,
               ShutdownLatch& latch);

  /// Parses, validates and executes one request line synchronously on
  /// the calling thread, returning the reply line (no trailing
  /// newline). This is the whole protocol minus the socket: unit tests
  /// drive it directly, and serve()'s workers route admitted requests
  /// through the same code. Never throws for any request content.
  [[nodiscard]] std::string handleLine(const std::string& line);

  /// Binds the socket and runs the accept/serve loop until the latch
  /// fires (SIGTERM/SIGINT or a drain request) and all admitted work
  /// has flushed its replies. Returns 0 on a clean drain, 1 when the
  /// socket could not be bound. Call once.
  [[nodiscard]] int serve();

  /// True once a drain began (latch fired). Exposed for tests.
  [[nodiscard]] bool draining() const { return latch_.requested(); }

  /// Hard per-line byte cap, shared by server and client readers: a
  /// longer "line" is a protocol violation, not a buffering problem.
  static constexpr std::size_t kMaxLineBytes = 1 << 16;

 private:
  struct Connection;
  struct Request;

  /// Parses + validates @p line into @p req. On failure returns false
  /// with @p reply set to the rendered error reply.
  bool parseRequest(const std::string& line, Request& req,
                    std::string& reply);
  /// Executes a validated request (any op) and renders its reply.
  std::string execute(const Request& req);

  std::string runEval(const Request& req);
  std::string runSuiteRow(const Request& req);
  std::string runRecommend(const Request& req);
  std::string healthReply(const Request& req);
  std::string statsReply(const Request& req);

  /// Routes one complete line from @p conn: control ops answer inline
  /// on the poll thread, compute ops go through admission (shed when
  /// the queue is full, `draining` once the latch fired).
  void dispatchLine(const std::shared_ptr<Connection>& conn,
                    const std::string& line);
  void workerLoop();
  void sendReply(const std::shared_ptr<Connection>& conn,
                 std::string reply);

  ServiceConfig config_;
  SweepExecutor& suite_;
  ShutdownLatch& latch_;

  struct Job {
    std::shared_ptr<Connection> conn;
    std::shared_ptr<Request> req;
  };
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  unsigned in_flight_ = 0;  ///< jobs popped but not yet replied
  bool stop_ = false;       ///< workers exit once queue drains
};

}  // namespace wp::driver
