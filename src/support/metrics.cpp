#include "support/metrics.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <ctime>
#include <cstdlib>
#include <cstring>

namespace wp {

double threadCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) {
    // POSIX guarantees this clock on Linux; treat failure as the
    // harness bug it would be rather than silently reporting 0.
    std::fprintf(stderr, "error: clock_gettime(CLOCK_THREAD_CPUTIME_ID): %s\n",
                 std::strerror(errno));
    std::exit(1);
  }
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void dieOnIoError(const std::string& what, const std::string& path,
                  const std::string& detail) {
  // errno may already be clobbered by stream teardown; report it only
  // when it still names a cause.
  const int err = errno;
  std::fprintf(stderr, "error: %s: %s '%s'%s%s\n", what.c_str(),
               detail.c_str(), path.c_str(), err != 0 ? ": " : "",
               err != 0 ? std::strerror(err) : "");
  std::exit(1);
}

bool fsyncDirContaining(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  errno = 0;
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  const int saved = errno;
  ::close(fd);
  errno = saved;
  return ok;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

TraceWriter::TraceWriter(std::string path, std::string knob)
    : path_(std::move(path)), knob_(std::move(knob)) {
  errno = 0;
  out_.open(path_, std::ios::out | std::ios::trunc);
  if (!out_.good()) dieOnIoError(knob_, path_, "cannot open trace file");
}

void TraceWriter::write(const TraceEvent& event) {
  char ts_text[32];
  std::snprintf(ts_text, sizeof ts_text, "%.9f", clock_.seconds());
  const std::string line = JsonLine()
                               .str("ev", event.name_)
                               .raw("ts", ts_text)
                               .append(event.fields_)
                               .render();
  std::lock_guard<std::mutex> lock(mutex_);
  errno = 0;
  out_ << line << '\n';
  // Flush per event: the trace must survive a crashed sweep, and events
  // are coarse (whole simulations), so the cost is noise.
  out_.flush();
  if (!out_.good()) dieOnIoError(knob_, path_, "write failed on trace file");
  ++events_;
}

}  // namespace wp
