#include "support/metrics.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <ctime>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace wp {

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

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

Timer& MetricsRegistry::timer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Timer>& slot = timers_[name];
  if (!slot) slot = std::make_unique<Timer>();
  return *slot;
}

std::map<std::string, u64> MetricsRegistry::counterValues() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, u64> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  return out;
}

std::map<std::string, MetricsRegistry::TimerSnapshot>
MetricsRegistry::timerValues() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, TimerSnapshot> out;
  for (const auto& [name, t] : timers_) {
    out[name] = TimerSnapshot{t->totalNanoseconds(), t->count()};
  }
  return out;
}

void MetricsRegistry::writeJsonFields(std::ostream& os,
                                      const std::string& indent) const {
  const auto counters = counterValues();
  const auto timers = timerValues();
  os << indent << "\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    os << (first ? "" : ", ") << "\"" << jsonEscape(name) << "\": " << value;
    first = false;
  }
  os << "},\n" << indent << "\"timers\": {";
  first = true;
  for (const auto& [name, t] : timers) {
    os << (first ? "" : ", ") << "\"" << jsonEscape(name)
       << "\": {\"seconds\": " << static_cast<double>(t.total_ns) * 1e-9
       << ", \"count\": " << t.count << "}";
    first = false;
  }
  os << "}";
}

TraceEvent& TraceEvent::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, "\"" + jsonEscape(value) + "\"");
  return *this;
}

TraceEvent& TraceEvent::num(const std::string& key, u64 value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

TraceEvent& TraceEvent::num(const std::string& key, int value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

TraceEvent& TraceEvent::num(const std::string& key, double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  fields_.emplace_back(key, os.str());
  return *this;
}

TraceEvent& TraceEvent::boolean(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

std::string TraceEvent::render(double ts_seconds) const {
  std::ostringstream os;
  os.precision(9);
  os << "{\"ev\": \"" << jsonEscape(name_) << "\", \"ts\": " << std::fixed
     << ts_seconds;
  for (const auto& [key, value] : fields_) {
    os << ", \"" << jsonEscape(key) << "\": " << value;
  }
  os << "}";
  return os.str();
}

TraceWriter::TraceWriter(std::string path, std::string knob)
    : path_(std::move(path)),
      knob_(std::move(knob)),
      start_(std::chrono::steady_clock::now()) {
  errno = 0;
  out_.open(path_, std::ios::out | std::ios::trunc);
  if (!out_.good()) dieOnIoError(knob_, path_, "cannot open trace file");
}

void TraceWriter::write(const TraceEvent& event) {
  const double ts =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  std::lock_guard<std::mutex> lock(mutex_);
  errno = 0;
  out_ << event.render(ts) << '\n';
  // Flush per event: the trace must survive a crashed sweep, and events
  // are coarse (whole simulations), so the cost is noise.
  out_.flush();
  if (!out_.good()) dieOnIoError(knob_, path_, "write failed on trace file");
  ++events_;
}

}  // namespace wp
