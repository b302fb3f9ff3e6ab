// Process-isolated execution of one sweep-cell attempt (WP_ISOLATE=1).
//
// The in-process supervisor (driver/supervisor.hpp) can catch a
// SimError, but a genuinely hostile cell — a SIGSEGV inside the
// simulator, an OOM kill, a loop that stops retiring instructions —
// takes the whole bench down and every completed cell with it. The
// worker harness shrinks the crash domain to one attempt of one cell:
//
//   parent (pool thread)                 child (forked worker)
//   ─────────────────────                ─────────────────────
//   pipe(); fork()               ──►     runs the attempt body (fault
//   reads the pipe, enforcing            injection + watchdog +
//   WP_CELL_TIMEOUT_MS from              Runner::runGroup), then writes ONE
//   outside the crash domain             line down the pipe:
//   waitpid(); classify                    · a checkpoint-format record
//                                            (driver/checkpoint.hpp) on
//                                            success, or
//                                          · {"ev": "fail", ...} for a
//                                            caught SimError — both
//                                            written by JsonLine and
//                                            read back by JsonReader,
//                                        then _exits without running
//                                        atexit/flush (it shares the
//                                        parent's fds and buffers).
//
// Every way a worker can die — signal, nonzero exit, torn record,
// wall-clock overrun — comes back as a WorkerResult failure whose
// message names the cell key, so the sweep executor can feed it into
// the exact same retry/quarantine ladder as an in-process SimError.
// Results that do come back are verified against their own stats
// digest before they are trusted (the same discipline the result store
// applies): a worker that died mid-write can produce a torn line, never
// a wrong table.
//
// The serialized record round-trips every double at 17 significant
// digits, so a table produced through workers is byte-identical to an
// in-process run at any WP_JOBS.
#pragma once

#include <functional>
#include <string>

#include "driver/runner.hpp"

namespace wp::driver {

/// Fate of one isolated cell attempt.
struct WorkerResult {
  bool ok = false;
  RunResult result;         ///< valid only when ok
  double wall_seconds = 0.0;  ///< child-measured attempt wall-clock
  /// Failure reason when !ok: the child's own SimError message, or a
  /// parent-side classification ("worker ... died by signal 11",
  /// "worker ... exceeded WP_CELL_TIMEOUT_MS", ...) naming @p key.
  std::string error;
};

/// Runs @p attempt in a forked worker process and returns its fate.
/// @p key tags every failure message; @p image_digest rides along in
/// the serialized record (the same digest the store would record).
/// @p timeout_ms > 0 arms the parent-side wall-clock kill; 0 waits
/// forever. @p attempt runs in the child only — side effects
/// on parent memory (metrics, traces, memo state) do not come back,
/// which is exactly the isolation being bought. Nothing else needs to:
/// the returned RunResult carries the attempt's own host cost.
[[nodiscard]] WorkerResult runCellInWorker(
    const std::string& key, u64 image_digest, u64 timeout_ms,
    const std::function<RunResult()>& attempt);

}  // namespace wp::driver
