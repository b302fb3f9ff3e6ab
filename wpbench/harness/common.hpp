// Shared plumbing of the benchmark harness: clocks, process statistics,
// the in-memory span tracer, a tiny JSON writer and a fan-out over
// wp::ThreadPool.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/bitops.hpp"

namespace wpbench {

using wp::u32;
using wp::u64;
using wp::u8;

/// Harness options, parsed from the command line by main.cpp.
struct Options {
  std::string workload;
  u64 seed = 0;
  double seconds = 20.0;
  bool trace = false;
  unsigned jobs = 4;
  /// Deliberately breaks one unit of work (a persistently faulting cell,
  /// or one malformed serve request) so the self-tests can show that a
  /// failure is counted rather than lost.
  bool inject_failure = false;
  std::string work_dir;   ///< scratch directory for this run
  std::string serve_bin;  ///< path of the wp_serve daemon
};

/// Monotonic wall clock, in seconds.
[[nodiscard]] double nowSeconds();
/// User + system CPU of this process, in seconds.
[[nodiscard]] double processCpuSeconds();
/// Peak resident set of this process, in MB.
[[nodiscard]] double peakRssMb();

/// One timed span: a named interval with the span that caused it and a
/// per-cell or per-request id. Times are seconds on nowSeconds().
struct Span {
  std::string name;
  u64 id = 0;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
  double cpu = 0.0;  ///< thread CPU seconds inside the span
};

/// Keeps spans in memory and writes them out once, at the end of a run.
/// A disabled tracer records nothing and costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span now; close it with finish(). Returns -1 when disabled.
  int open(const std::string& name, u64 id, int parent);
  void finish(int index);

  /// Self time per span name: each span's duration minus the part of it
  /// that its child spans cover, summed over every span of that name.
  [[nodiscard]] std::map<std::string, double> selfSeconds() const;
  /// Writes every span as one JSON line.
  void write(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<Span> spans() const;

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Runs task(i) for every i in [0, n) on a wp::ThreadPool of @p jobs
/// threads; rethrows the first exception any task threw.
void parallelFor(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)>& task);

/// Renders a double with every digit it has (round-trip exact).
[[nodiscard]] std::string num(double v);
/// Renders @p s as a quoted JSON string.
[[nodiscard]] std::string quoted(const std::string& s);
/// Renders a list of doubles as a JSON array.
[[nodiscard]] std::string numList(const std::vector<double>& values);

/// Builds one JSON object field by field.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json);
  JsonObject& add(const std::string& key, double v) { return raw(key, num(v)); }
  JsonObject& add(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  [[nodiscard]] std::string render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// What one workload run hands back to main.cpp for the result file.
struct RunOutput {
  std::vector<double> setup_s;  ///< one sample per set-up
  struct Pass {
    double wall_s = 0.0;
    double cells = 0.0;  ///< requested cells (or requests) answered
    double cpu_s = 0.0;  ///< CPU of the measured process in this pass
  };
  std::vector<Pass> passes;
  std::vector<double> latency_ms;  ///< one sample per requested cell
  double latency_tail_pct = 99.0;  ///< the tail percentile reported
  double peak_rss_mb = 0.0;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  /// Extra JSON fields for run.py (the fig6 report directory).
  JsonObject extra;
  std::map<std::string, double> layers;  ///< per-layer metrics, traced runs

  void fail(const std::string& why);
};

/// Median of @p v (0 when empty).
[[nodiscard]] double median(std::vector<double> v);

}  // namespace wpbench
