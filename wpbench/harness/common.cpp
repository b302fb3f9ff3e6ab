#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

namespace wpbench {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double processCpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

int Tracer::open(const std::string& name, u64 id, int parent) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start = nowSeconds();
  s.cpu = wp::threadCpuSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::finish(int index) {
  if (index < 0) return;
  const double end = nowSeconds();
  const double cpu = wp::threadCpuSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end = end;
  s.cpu = cpu - s.cpu;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  const std::vector<Span> all = spans();
  // Children of one parent may overlap (a parallel fan-out), so the part
  // of the parent they cover is the union of their intervals.
  std::vector<std::vector<std::pair<double, double>>> kids(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[all[i].name] += (all[i].end - all[i].start) - covered;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans()) {
    out << JsonObject()
               .add("name", s.name)
               .add("id", static_cast<double>(s.id))
               .add("parent", static_cast<double>(s.parent))
               .add("start", s.start)
               .add("end", s.end)
               .add("cpu", s.cpu)
               .render()
        << "\n";
  }
}

void parallelFor(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)>& task) {
  wp::ThreadPool pool(std::max(1u, jobs));
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([&task, i] { task(i); });
  }
  pool.wait();
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  return "\"" + wp::jsonEscape(s) + "\"";
}

std::string numList(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += num(values[i]);
  }
  return out + "]";
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  if (!body_.empty()) body_ += ", ";
  body_ += quoted(key) + ": " + json;
  return *this;
}

void RunOutput::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 20) failures.push_back(why);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace wpbench
