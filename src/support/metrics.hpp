// Observability primitives for the experiment harness: a thread-safe
// counter registry, a wall-clock stopwatch, and a JSONL trace writer.
//
// Host cost has one record: each cell's RunResult and each workload's
// PreparePhases (driver/runner.hpp), from which the sweep executor
// derives every aggregate. The registry here only counts events (memo
// hits, cells computed, store traffic). Nothing here feeds back into
// the simulated machine, so instrumentation can never perturb a result
// — tables stay byte-identical whether or not a trace is being recorded.
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

/// Named counters, created on first use. Lookup returns a reference
/// that stays valid for the registry's lifetime, so hot paths can cache
/// it and pay only the counter's own lock per event.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

/// Wall-clock seconds elapsed since construction, on the steady clock.
class Stopwatch {
 public:
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
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
  Stopwatch clock_;
};

}  // namespace wp
