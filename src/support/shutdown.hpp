// Process-wide shutdown latch for SIGTERM/SIGINT (graceful drain).
//
// Long sweeps and the sweep service both need the same discipline: a
// termination signal must not abort mid-write — it should *latch*, let
// the current unit of work finish, flush whatever durable state exists
// (partial WP_JSON report, result-store records, in-flight replies) and
// exit with a distinct code. The latch is the one async-signal-safe
// primitive that supports both consumers:
//
//   polling   requested() is an atomic read — the sweep executor
//             checks it at each cell boundary, so an interrupted bench
//             stops starting new cells but never tears a running one.
//   waiting   pollFd() is the read end of a self-pipe the handler
//             writes one byte to; the service's poll(2) loop includes
//             it, so a signal wakes a blocked server immediately
//             instead of at the next connection.
//
// install() is idempotent and chains nothing: it replaces the default
// disposition only (benches and the daemon own their process). The
// handler itself does exactly two async-signal-safe things — a write(2)
// to the pipe and a compare-exchange on a lock-free std::atomic<int>.
#pragma once

namespace wp {

class ShutdownLatch {
 public:
  /// The process-wide latch. Signal handlers force a singleton: there
  /// is one SIGTERM disposition per process, so there is one latch.
  [[nodiscard]] static ShutdownLatch& instance();

  /// Installs SIGTERM+SIGINT handlers (first call only; later calls are
  /// no-ops). Exits 1 if the self-pipe or sigaction fails — a harness
  /// that asked for graceful shutdown and silently cannot deliver it
  /// would be worse than one that never asked.
  void install();

  [[nodiscard]] bool installed() const;

  /// True once a shutdown signal arrived (or trigger() ran).
  [[nodiscard]] bool requested() const;

  /// The signal that latched (SIGTERM/SIGINT), or 0 when none did.
  [[nodiscard]] int signalNumber() const;

  /// Read end of the self-pipe: becomes readable when the latch fires.
  /// -1 before install(). Never read it empty — level-triggered polls
  /// should treat readability as "latched" and consult requested().
  [[nodiscard]] int pollFd() const;

  /// Latches as if @p sig arrived. Async-signal-safe and thread-safe;
  /// tests and the service's `drain` op use it to reuse the one
  /// drain path real signals take.
  void trigger(int sig);

  /// Clears a fired latch (not the handlers). Tests only: production
  /// consumers treat a latched process as terminally draining.
  void reset();

 private:
  ShutdownLatch() = default;
};

}  // namespace wp
