#include "support/shutdown.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace wp {

namespace {

// File-scope state, not members: the handler may run on any thread at
// any instruction, so everything it touches must be an lvalue with
// static storage duration and async-signal-safe access. The flag is
// also shared between threads (pool workers and the service's poll
// thread read it while trigger() writes it), which sig_atomic_t does
// not make safe; a lock-free atomic is safe both between threads and
// inside a signal handler.
std::atomic<int> g_signal{0};
static_assert(std::atomic<int>::is_always_lock_free);
int g_pipe[2] = {-1, -1};
bool g_installed = false;
std::once_flag g_install_once;

void latchHandler(int sig) {
  // Order matters: the flag first, then the wakeup byte, so a poller
  // woken by the pipe always observes requested() == true. The first
  // signal wins.
  int none = 0;
  g_signal.compare_exchange_strong(none, sig);
  if (g_pipe[1] >= 0) {
    const char byte = 1;
    // Best-effort: a full pipe already woke every poller.
    [[maybe_unused]] const ssize_t n = ::write(g_pipe[1], &byte, 1);
  }
}

}  // namespace

ShutdownLatch& ShutdownLatch::instance() {
  static ShutdownLatch latch;
  return latch;
}

void ShutdownLatch::install() {
  std::call_once(g_install_once, [] {
    if (::pipe(g_pipe) != 0) {
      std::perror("error: ShutdownLatch cannot create its self-pipe");
      std::exit(1);
    }
    for (const int fd : g_pipe) {
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
      ::fcntl(fd, F_SETFL, O_NONBLOCK);
    }
    struct sigaction sa;
    sa.sa_handler = latchHandler;
    ::sigemptyset(&sa.sa_mask);
    // SA_RESTART: the latch wakes consumers through the pipe (poll
    // includes it) or the per-cell flag check — unrelated syscalls
    // should not start failing with EINTR just because a drain began.
    sa.sa_flags = SA_RESTART;
    if (::sigaction(SIGTERM, &sa, nullptr) != 0 ||
        ::sigaction(SIGINT, &sa, nullptr) != 0) {
      std::perror("error: ShutdownLatch cannot install signal handlers");
      std::exit(1);
    }
    g_installed = true;
  });
}

bool ShutdownLatch::installed() const { return g_installed; }

bool ShutdownLatch::requested() const { return g_signal.load() != 0; }

int ShutdownLatch::signalNumber() const { return g_signal.load(); }

int ShutdownLatch::pollFd() const { return g_pipe[0]; }

void ShutdownLatch::trigger(int sig) { latchHandler(sig); }

void ShutdownLatch::reset() {
  g_signal.store(0);
  if (g_pipe[0] >= 0) {
    char buf[64];
    while (::read(g_pipe[0], buf, sizeof buf) > 0) {
    }
  }
}

}  // namespace wp
