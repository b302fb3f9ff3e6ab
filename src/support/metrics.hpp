// Observability primitives for the experiment harness: a thread-safe
// counter/timer registry, RAII timing spans, and a JSONL trace writer.
//
// The registry aggregates *host-side* activity (phase wall-clock, memo
// hits, guest instructions simulated); nothing here feeds back into the
// simulated machine, so instrumentation can never perturb a result —
// tables stay byte-identical whether or not a trace is being recorded.
//
// The trace writer emits one JsonLine (support/json.hpp) per event,
// append-only and flushed per event so a crashed sweep still leaves a
// readable prefix. File errors follow the harness's strict-environment
// policy: a requested trace that cannot be opened or written is a
// startup/run error (exit 1 with a message naming the path), never a
// silent no-op.
#pragma once

#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "support/bitops.hpp"
#include "support/json.hpp"

namespace wp {

/// Reports an unusable metrics/report output file and exits with status
/// 1 (the strict-environment policy: a requested artifact that cannot
/// be produced is an error, not a silent omission). @p what names the
/// knob (e.g. "WP_JSON"), @p detail the failing operation.
[[noreturn]] void dieOnIoError(const std::string& what,
                               const std::string& path,
                               const std::string& detail);

/// fsyncs the directory containing @p path (the path's dirname, or "."
/// when it has none). Required after creating or renaming a file whose
/// *existence* must survive a crash: fsyncing the file alone makes its
/// bytes durable, but on ext4-class filesystems the directory entry
/// pointing at them is separate metadata with its own durability.
/// Returns false (with errno set) instead of exiting so callers choose
/// their own severity — the result store degrades rather than dying.
[[nodiscard]] bool fsyncDirContaining(const std::string& path);

/// CPU time consumed by the *calling thread*, in seconds. Unlike a wall
/// clock this does not advance while the thread is descheduled, so
/// spans measured with it are comparable across WP_JOBS settings — on
/// an oversubscribed machine a wall-clock span charges the cell for
/// time the scheduler gave to its neighbours.
[[nodiscard]] double threadCpuSeconds();

/// Monotonic u64 event counter; add() is safe from any thread.
class Counter {
 public:
  void add(u64 n = 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    value_ += n;
  }
  [[nodiscard]] u64 value() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return value_;
  }

 private:
  mutable std::mutex mutex_;
  u64 value_ = 0;
};

/// Accumulated duration + span count; record() is safe from any thread.
class Timer {
 public:
  void record(std::chrono::nanoseconds d) {
    std::lock_guard<std::mutex> lock(mutex_);
    total_ns_ += static_cast<u64>(d.count());
    ++count_;
  }
  [[nodiscard]] u64 totalNanoseconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_ns_;
  }
  [[nodiscard]] u64 count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(totalNanoseconds()) * 1e-9;
  }

 private:
  mutable std::mutex mutex_;
  u64 total_ns_ = 0;
  u64 count_ = 0;
};

/// Named counters and timers, created on first use. Lookup returns a
/// reference that stays valid for the registry's lifetime, so hot paths
/// can cache it and pay only the atomic add per event.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Timer& timer(const std::string& name);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
};

/// RAII span: records the elapsed time into @p timer on destruction (or
/// at an explicit stop(), which also returns the elapsed seconds).
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer)
      : timer_(&timer), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (timer_ != nullptr) stop();
  }

  /// Ends the span now; returns elapsed seconds. Idempotent.
  double stop() {
    if (timer_ == nullptr) return last_seconds_;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    timer_->record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed));
    last_seconds_ = std::chrono::duration<double>(elapsed).count();
    timer_ = nullptr;
    return last_seconds_;
  }

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_;
  double last_seconds_ = 0.0;
};

/// One trace event, written as `{"ev": "<name>", "ts": <seconds since
/// the trace began>, <fields in call order>}`.
class TraceEvent {
 public:
  explicit TraceEvent(std::string name) : name_(std::move(name)) {}

  TraceEvent& str(std::string_view key, std::string_view value) {
    fields_.str(key, value);
    return *this;
  }
  template <class T>
  TraceEvent& num(std::string_view key, T value) {
    fields_.num(key, value);
    return *this;
  }
  TraceEvent& boolean(std::string_view key, bool value) {
    fields_.boolean(key, value);
    return *this;
  }

 private:
  friend class TraceWriter;
  std::string name_;
  JsonLine fields_;
};

/// Append-only JSONL event log. Thread-safe; every line is flushed so a
/// crash loses at most the in-flight event. Both construction and every
/// write fail loudly (exit 1) on I/O errors — see dieOnIoError().
class TraceWriter {
 public:
  /// @p knob names the environment variable requesting the trace; it
  /// appears in error messages ("WP_TRACE: cannot open ...").
  TraceWriter(std::string path, std::string knob = "WP_TRACE");

  void write(const TraceEvent& event);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] u64 eventsWritten() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

 private:
  std::string path_;
  std::string knob_;
  std::ofstream out_;
  mutable std::mutex mutex_;
  u64 events_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace wp
