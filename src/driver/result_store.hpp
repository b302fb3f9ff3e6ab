// Persistent, content-addressed result store for sweeps (WP_STORE).
//
// The sweep's one durability path: a cross-run, cross-bench cache that
// is also its crash recovery (a killed sweep re-run on the same store
// recomputes only the cells it never published). One record file per
// cell (driver/checkpoint.hpp's record format) under WP_STORE=<dir>,
// addressed by (experiment seed, cell key, image digest) — the image
// digest covers the exact bytes the cell would simulate, so a store
// populated under other code, another layout pipeline or other inputs
// simply misses instead of serving stale numbers.
//
// The store is a plain verified cache: open() is one verified read and
// put() is one atomic publish. A record is written to a staging file
// named by the writer's pid (`<record>.tmp.<pid>`), fsync'd, then
// rename(2)'d into place, then the directory is fsync'd — so a reader
// never observes a half-written record.
//
// Any number of bench processes (and any WP_JOBS inside each) can share
// one store without coordinating. Within one process the executor's
// memo computes each cell once. Two processes that miss the same cell
// may both compute it: each stages its record under its own pid and
// renames it into place, the last rename wins, and readers verify
// whichever record they find. Both records carry the same guest
// payload; only their host timing fields differ.
//
// Trust rules: every read re-verifies the record's own stats digest
// plus its header (version, seed, key) and the image digest; tampered,
// torn or version-mismatched records are rejected, counted, and
// recomputed — never served; wp_store_fsck audits a store through the
// same functions below. An unwritable or corrupt store *degrades
// loudly* to compute-everything (stderr warning + store.degraded
// metric) instead of aborting: losing the cache must never lose the
// sweep.
#pragma once

#include <atomic>
#include <optional>
#include <string>
#include <string_view>

#include "driver/checkpoint.hpp"
#include "support/metrics.hpp"

namespace wp::driver {

/// A record file's name, `cell-<seed>-<key digest>-<image digest>.rec`
/// (16 lowercase hex digits each), and its inverse.
struct RecordAddress {
  u64 seed = 0;
  u64 key_digest = 0;  ///< stringDigest of the cell key
  u64 image_digest = 0;
};
[[nodiscard]] std::string recordFileName(const RecordAddress& address);
[[nodiscard]] std::optional<RecordAddress> parseRecordFileName(
    std::string_view name);

/// Reads the record file at @p path and checks it against @p address:
/// the store header's version, seed and key digest, then the record's
/// own stats digest, its key and its image digest. nullopt with @p why
/// empty when the file cannot be opened (a plain miss), else with
/// @p why naming the first failed check.
[[nodiscard]] std::optional<CheckpointRecord> readRecordFile(
    const std::string& path, const RecordAddress& address,
    std::string& why);

class ResultStore {
 public:
  struct Config {
    std::string dir;
  };

  /// WP_STORE; nullopt when it is unset or empty (the store is opt-in).
  [[nodiscard]] static std::optional<Config> fromEnv();

  /// Opens (creating if needed) the store directory. Failures degrade
  /// the store, they do not abort. @p trace may be null. The registry
  /// gains the "store.*" counters; both must outlive the store.
  ResultStore(const Config& config, u64 seed, MetricsRegistry& metrics,
              TraceWriter* trace);

  /// The token open() hands back and put() takes. It holds nothing: no
  /// process locks a cell to compute it.
  struct Lease {};

  /// Fate of one lookup: a verified record to serve, or (on a miss,
  /// a rejected record or a degraded store) none, and the caller
  /// computes the cell and then put()s it.
  struct Outcome {
    std::optional<CheckpointRecord> record;
    Lease lease;
  };

  /// One verified read of the cell's record. Thread-safe.
  [[nodiscard]] Outcome open(const std::string& key, u64 image_digest);

  /// Publishes a computed cell: staging write + fsync + atomic rename +
  /// directory fsync. No-op on a degraded store.
  void put(const Lease& lease, const std::string& key, u64 image_digest,
           const RunResult& result, double wall_seconds);

  /// True once any I/O failure switched the store to compute-everything.
  [[nodiscard]] bool degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const std::string& dir() const { return config_.dir; }
  [[nodiscard]] u64 seed() const { return seed_; }

  /// The record file for a cell. Exposed for tests and post-mortem
  /// tooling.
  [[nodiscard]] std::string recordPathFor(const std::string& key,
                                          u64 image_digest) const;

 private:
  /// readRecordFile on the cell's file plus the exact-key comparison.
  /// Distinguishes "absent" (miss, returns nullopt with @p rejected
  /// untouched) from "present but untrustworthy" (returns nullopt, sets
  /// @p rejected).
  [[nodiscard]] std::optional<CheckpointRecord> load(
      const std::string& key, u64 image_digest, bool& rejected);

  void degrade(const std::string& reason);

  Config config_;
  u64 seed_ = 0;
  MetricsRegistry& metrics_;
  TraceWriter* trace_ = nullptr;  ///< not owned; may be null
  std::atomic<bool> degraded_{false};
};

}  // namespace wp::driver
