// Persistent, content-addressed result store for sweeps (WP_STORE).
//
// The sweep's one durability path: a cross-run, cross-bench cache that
// is also its crash recovery (a killed sweep re-run on the same store
// recomputes only the cells it never published). One record file per
// cell (driver/checkpoint.hpp's record format) under WP_STORE=<dir>,
// addressed by (experiment seed, cell key, image digest) — the image
// digest covers the exact bytes the cell would simulate, so a store
// populated under other code, another layout pipeline or other inputs
// simply misses instead of serving stale numbers. Any number of bench
// processes (and any WP_JOBS inside each) can share one store:
//
//   record files   written to a temp name, fsync'd, then atomically
//                  rename(2)'d into place (plus a directory fsync), so
//                  a reader never observes a half-written record and
//                  concurrent writers of the same cell converge on the
//                  same bytes — results are deterministic per key.
//   lock leases    a miss is computed under `<record>.lock`, created
//                  with O_CREAT|O_EXCL and carrying a {"pid", "boot",
//                  "seed"} payload. A second process that misses the
//                  same cell waits on the lease instead of
//                  double-computing, and reclaims it when the holder is
//                  provably dead (kill(pid, 0) => ESRCH), was written
//                  in a previous boot (the boot nonce mismatches — a
//                  rebooted host may have reused the pid for a live,
//                  unrelated process), or has sat on it past
//                  WP_LEASE_TIMEOUT_MS (a hung holder). See DESIGN.md
//                  §10 for why this is O_EXCL + pid probing and not
//                  flock.
//
// Trust rules match the worker pipe's: every read re-verifies the
// record's own stats digest plus its header (version, seed, key) and
// the image digest; tampered, torn or version-mismatched records are
// rejected, counted, and recomputed — never served; wp_store_fsck
// audits a store through the same functions below. An unwritable or
// corrupt store *degrades loudly* to compute-everything (stderr warning +
// store.degraded metric) instead of aborting: losing the cache must
// never lose the sweep. Environment parsing, by contrast, stays strict
// — a malformed WP_LEASE_TIMEOUT_MS exits 1 like every other WP_* knob.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <optional>
#include <string>
#include <string_view>

#include "driver/checkpoint.hpp"
#include "support/metrics.hpp"

namespace wp::driver {

/// Identity of the current OS boot, hashed to a stable nonce: the
/// kernel's boot_id UUID when readable, the boot timestamp from
/// /proc/stat otherwise, 0 when neither exists (the nonce check then
/// disables itself). Lease payloads carry it so a lease written before
/// a reboot can never be mistaken for one held by a live process —
/// after a reboot the old holder's pid may have been reused by an
/// unrelated, very-much-alive process, and probing it with kill(pid, 0)
/// would wrongly keep the stale lease parked until WP_LEASE_TIMEOUT_MS.
[[nodiscard]] u64 bootNonce();

/// What a store lease (.lock) file says about its holder — the one
/// verdict the store's reclamation and wp_store_fsck both act on. pid 0
/// means the file is missing or torn, or names a pid no process can
/// have (the store waits it out, fsck calls it stale); boot 0 means an
/// old-format payload, and the pid probe is the only evidence left.
struct StoreLeaseHolder {
  pid_t pid = 0;
  u64 boot = 0;
  bool dead = false;  ///< pidDead(pid)
  /// Written in a previous boot: the pid may since belong to an
  /// unrelated live process, so probing it proves nothing.
  bool previous_boot = false;
};

[[nodiscard]] StoreLeaseHolder readStoreLease(const std::string& lock_path);

/// kill(pid, 0) => ESRCH: @p pid provably names no live process.
[[nodiscard]] bool pidDead(pid_t pid);

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
    /// Milliseconds a live-but-silent lease holder keeps its lease
    /// (WP_LEASE_TIMEOUT_MS; a dead holder is reclaimed immediately).
    u64 lease_timeout_ms = 10 * 60 * 1000;
  };

  /// Strict parse of WP_STORE / WP_LEASE_TIMEOUT_MS; nullopt when
  /// WP_STORE is unset or empty (the store is opt-in). Malformed values
  /// exit 1 with a message naming the knob.
  [[nodiscard]] static std::optional<Config> fromEnv();

  /// Opens (creating if needed) the store directory. Failures degrade
  /// the store, they do not abort. @p trace may be null. The registry
  /// gains the "store.*" counters; both must outlive the store.
  ResultStore(const Config& config, u64 seed, MetricsRegistry& metrics,
              TraceWriter* trace);

  /// Ownership of one cell's compute lease. Movable; releases (unlinks
  /// its lock file, if still ours) on destruction, so a quarantined or
  /// thrown-through cell frees the cell for other processes.
  class Lease {
   public:
    Lease() = default;
    ~Lease() { release(); }
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] bool owned() const { return !lock_path_.empty(); }
    /// Unlinks the lock file if this process still holds it. Idempotent.
    void release();

   private:
    friend class ResultStore;
    std::string lock_path_;
  };

  /// Fate of one lookup: either a verified record to serve, or (on a
  /// miss) the lease under which the caller must compute the cell and
  /// then put(). A degraded store returns a miss with an unowned lease.
  struct Outcome {
    std::optional<CheckpointRecord> record;
    Lease lease;
  };

  /// Blocks until the cell is either readable (verified hit — possibly
  /// after waiting out another process's compute) or this process owns
  /// its lease. Never blocks longer than one lease timeout per stale
  /// holder. Thread-safe; the executor's memo guarantees one caller per
  /// key per process.
  [[nodiscard]] Outcome open(const std::string& key, u64 image_digest);

  /// Publishes a computed cell: temp write + fsync + atomic rename +
  /// directory fsync, then releases @p lease. No-op (beyond the
  /// release) on a degraded store or an unowned lease.
  void put(Lease& lease, const std::string& key, u64 image_digest,
           const RunResult& result, double wall_seconds);

  /// True once any I/O failure switched the store to compute-everything.
  [[nodiscard]] bool degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const std::string& dir() const { return config_.dir; }
  [[nodiscard]] u64 seed() const { return seed_; }

  /// The record file (and, with ".lock", the lease file) for a cell.
  /// Exposed for tests and post-mortem tooling.
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
