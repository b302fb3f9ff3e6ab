#include "driver/worker.hpp"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include "driver/checkpoint.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"

namespace wp::driver {

namespace {

/// Writes all of @p line to @p fd, retrying on EINTR. Best-effort: if
/// the parent died and the pipe is broken there is nobody left to tell.
void writeAll(int fd, const std::string& line) {
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

/// The child's half of the protocol: run the attempt, write one line,
/// _exit. Never returns. Exit codes: 0 = record on the pipe, 2 = fail
/// event on the pipe. Anything else (or a signal) means the attempt
/// itself died and the parent classifies the corpse.
[[noreturn]] void childMain(int write_fd, const std::string& key,
                            u64 image_digest,
                            const std::function<RunResult()>& attempt) {
  std::string line;
  int code = 0;
  try {
    const Stopwatch wall;
    const RunResult result = attempt();
    line = renderRecord(key, image_digest, result, wall.seconds());
  } catch (const std::exception& e) {
    // SimError (cell faults, watchdog, WP_ENSURE) and anything else the
    // attempt can throw travel back verbatim so the parent's retry
    // ladder sees the same message an in-process run would have.
    line = JsonLine().str("ev", "fail").str("what", e.what()).render();
    code = 2;
  }
  line += '\n';
  writeAll(write_fd, line);
  ::close(write_fd);
  // _Exit, not exit: the child shares the parent's stdio buffers and
  // atexit registrations; flushing or tearing them down here would
  // corrupt the parent's output.
  std::_Exit(code);
}

/// Reads the child's pipe until EOF or @p deadline. Returns false on
/// deadline overrun (the caller kills the child).
bool readWithDeadline(int fd, std::string& out, bool use_deadline,
                      std::chrono::steady_clock::time_point deadline) {
  char buf[4096];
  for (;;) {
    if (use_deadline) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now)
              .count();
      struct pollfd p = {fd, POLLIN, 0};
      const int r = ::poll(&p, 1, static_cast<int>(left) + 1);
      if (r < 0) {
        if (errno == EINTR) continue;
        return true;  // poll itself broke: fall through to classification
      }
      if (r == 0) return false;  // deadline
    }
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      return true;
    }
    if (n == 0) return true;  // EOF: child closed its end
    out.append(buf, static_cast<std::size_t>(n));
  }
}

/// waitpid that survives EINTR.
int waitFor(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

std::string tag(const std::string& key, const std::string& what) {
  return "worker for cell '" + key + "': " + what;
}

}  // namespace

WorkerResult runCellInWorker(const std::string& key, u64 image_digest,
                             u64 timeout_ms,
                             const std::function<RunResult()>& attempt) {
  WorkerResult out;
  int fds[2];
  if (::pipe(fds) != 0) {
    out.error = tag(key, std::string("pipe() failed: ") +
                             std::strerror(errno));
    return out;
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    out.error = tag(key, std::string("fork() failed: ") +
                             std::strerror(errno));
    return out;
  }
  if (pid == 0) {
    ::close(fds[0]);
    childMain(fds[1], key, image_digest, attempt);  // never returns
  }
  ::close(fds[1]);

  const bool use_deadline = timeout_ms > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::string payload;
  const bool finished = readWithDeadline(fds[0], payload, use_deadline,
                                         deadline);
  ::close(fds[0]);

  if (!finished) {
    // Wall-clock overrun enforced from *outside* the crash domain: this
    // is the only watchdog that can end a cell that stopped retiring
    // instructions (where the in-process budget hook never runs).
    ::kill(pid, SIGKILL);
    waitFor(pid);
    out.error = tag(key, "hung — exceeded WP_CELL_TIMEOUT_MS=" +
                             std::to_string(timeout_ms) +
                             " without producing a result; killed");
    return out;
  }

  const int status = waitFor(pid);
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    out.error = tag(key, std::string("crashed — died by signal ") +
                             std::to_string(sig) + " (" +
                             ::strsignal(sig) + ")");
    return out;
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;

  // One line is the whole protocol; take the first (a crashing attempt
  // can leave trailing garbage after a complete line, never before it).
  const std::size_t nl = payload.find('\n');
  const std::string line =
      nl == std::string::npos ? payload : payload.substr(0, nl);

  if (code == 2) {
    JsonReader fields;
    std::string ev;
    if (fields.parse(line) && fields.get("ev", ev) == JsonField::kOk &&
        ev == "fail" && fields.get("what", out.error) == JsonField::kOk) {
      return out;  // out.error is the child's SimError, verbatim
    }
    out.error = tag(key, "reported a failure but its message was torn");
    return out;
  }
  if (code != 0) {
    out.error = tag(key, "exited with status " + std::to_string(code) +
                             " without a result");
    return out;
  }

  // Exit 0: the line must be a record that verifies against its own
  // stats digest and names this cell — the same trust rules the result
  // store applies. A child that was killed between write() and _exit
  // cannot happen (the write precedes the exit), but a torn or alien
  // line still must never become a table cell.
  CheckpointRecord rec;
  switch (parseRecordLine(line, rec)) {
    case RecordParse::kOk:
      break;
    case RecordParse::kMalformed:
      out.error = tag(key, "returned a torn or malformed result record");
      return out;
    case RecordParse::kDigestMismatch:
      out.error = tag(key, "returned a record whose stats digest does not "
                           "match its payload");
      return out;
  }
  if (rec.key != key) {
    out.error = tag(key, "returned a record for foreign cell '" + rec.key +
                             "'");
    return out;
  }
  out.ok = true;
  out.result = std::move(rec.result);
  out.wall_seconds = rec.wall_seconds;
  return out;
}

}  // namespace wp::driver
