#include "driver/result_store.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>

#include "support/ensure.hpp"
#include "support/number.hpp"

namespace wp::driver {

namespace {

/// Age of @p path in milliseconds by mtime; u64(-1) when unstattable
/// (e.g. the lock vanished between our probe and now).
u64 fileAgeMs(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return static_cast<u64>(-1);
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const u64 now_ms = static_cast<u64>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now).count());
  const u64 mtime_ms = static_cast<u64>(st.st_mtim.tv_sec) * 1000u +
                       static_cast<u64>(st.st_mtim.tv_nsec) / 1000000u;
  return now_ms > mtime_ms ? now_ms - mtime_ms : 0;
}

}  // namespace

StoreLeaseHolder readStoreLease(const std::string& lock_path) {
  StoreLeaseHolder holder;
  std::ifstream in(lock_path);
  std::string line;
  JsonReader fields;
  if (!std::getline(in, line) || !fields.parse(line)) return holder;
  // A pid no process can have is as unprobeable as a torn payload.
  u64 pid = 0;
  fields.get("pid", pid);
  if (pid <= static_cast<u64>(std::numeric_limits<pid_t>::max())) {
    holder.pid = static_cast<pid_t>(pid);
  }
  fields.get("boot", holder.boot);
  holder.dead = pidDead(holder.pid);
  // Both nonces must exist for the boot check: a 0 on either side
  // means "no boot identity" (old-format lease or a host without one),
  // and the pid probe plus expiry stay the only evidence.
  holder.previous_boot =
      holder.boot != 0 && bootNonce() != 0 && holder.boot != bootNonce();
  return holder;
}

bool pidDead(pid_t pid) {
  return pid > 0 && ::kill(pid, 0) != 0 && errno == ESRCH;
}

std::string recordFileName(const RecordAddress& address) {
  // The key digest keeps arbitrary cell keys out of the name while
  // staying collision-safe in practice; the header inside the file
  // re-states the real key so a collision is caught at read time.
  char name[64];
  std::snprintf(name, sizeof name, "cell-%016llx-%016llx-%016llx.rec",
                static_cast<unsigned long long>(address.seed),
                static_cast<unsigned long long>(address.key_digest),
                static_cast<unsigned long long>(address.image_digest));
  return name;
}

std::optional<RecordAddress> parseRecordFileName(std::string_view name) {
  unsigned long long v[3];
  if (std::sscanf(std::string(name).c_str(), "cell-%16llx-%16llx-%16llx.rec",
                  &v[0], &v[1], &v[2]) != 3) {
    return std::nullopt;
  }
  const RecordAddress address{v[0], v[1], v[2]};
  // Re-rendering rejects what sscanf lets through: signs, short or
  // uppercase hex, a "0x" prefix, anything after ".rec".
  if (recordFileName(address) != name) return std::nullopt;
  return address;
}

std::optional<CheckpointRecord> readRecordFile(const std::string& path,
                                               const RecordAddress& address,
                                               std::string& why) {
  std::ifstream in(path);
  if (!in.is_open()) return std::nullopt;  // plain miss
  const auto fail = [&why](const char* check) {
    why = check;
    return std::nullopt;
  };
  std::string header_line;
  std::string record_line;
  if (!std::getline(in, header_line) || !std::getline(in, record_line)) {
    // rename(2) publishes whole files, so this is damage from outside.
    return fail("torn (fewer than two lines)");
  }
  JsonReader header;
  if (!header.parse(header_line)) return fail("torn (malformed header)");
  std::string ev;
  u64 version = 0;
  if (header.get("ev", ev) != JsonField::kOk || ev != "store" ||
      header.get("version", version) != JsonField::kOk || version != 1) {
    return fail("header is not a version-1 store header");
  }
  u64 seed = 0;
  if (header.get("seed", seed) != JsonField::kOk || seed != address.seed) {
    return fail("header seed disagrees with the filename");
  }
  std::string key;
  if (header.get("key", key) != JsonField::kOk ||
      stringDigest(key) != address.key_digest) {
    return fail("header key disagrees with the filename's key digest");
  }
  CheckpointRecord rec;
  if (parseRecordLine(record_line, rec) != RecordParse::kOk) {
    return fail("record line torn or stats digest mismatch");
  }
  if (rec.key != key) return fail("record key disagrees with the header");
  if (rec.image_digest != address.image_digest) {
    return fail("record image digest disagrees with the filename");
  }
  return rec;
}

u64 bootNonce() {
  static const u64 nonce = [] {
    // The kernel regenerates this UUID every boot; its hash is the
    // strongest boot identity available without any state of our own.
    std::ifstream boot_id("/proc/sys/kernel/random/boot_id");
    std::string line;
    if (boot_id.is_open() && std::getline(boot_id, line) && !line.empty()) {
      return stringDigest(line);
    }
    // Fallback: the boot timestamp (seconds since the epoch). Coarser —
    // two boots within the same second collide — but still catches the
    // reboot-plus-pid-reuse case the pid probe cannot.
    std::ifstream stat("/proc/stat");
    while (stat.is_open() && std::getline(stat, line)) {
      if (line.rfind("btime ", 0) == 0) {
        return stringDigest(line);
      }
    }
    return static_cast<u64>(0);  // no boot identity: nonce check disabled
  }();
  return nonce;
}

std::optional<ResultStore::Config> ResultStore::fromEnv() {
  const char* dir = std::getenv("WP_STORE");
  if (dir == nullptr || *dir == '\0') return std::nullopt;
  Config c;
  c.dir = dir;
  c.lease_timeout_ms =
      envUnsigned("WP_LEASE_TIMEOUT_MS", c.lease_timeout_ms, 1,
                  24ULL * 60 * 60 * 1000, "lease timeout in milliseconds");
  return c;
}

ResultStore::ResultStore(const Config& config, u64 seed,
                         MetricsRegistry& metrics, TraceWriter* trace)
    : config_(config), seed_(seed), metrics_(metrics), trace_(trace) {
  if (::mkdir(config_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    degrade("cannot create store directory '" + config_.dir +
            "': " + std::strerror(errno));
    return;
  }
  struct stat st;
  if (::stat(config_.dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    degrade("'" + config_.dir + "' exists but is not a directory");
  }
}

ResultStore::Lease& ResultStore::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    release();
    lock_path_ = std::move(other.lock_path_);
    other.lock_path_.clear();
  }
  return *this;
}

void ResultStore::Lease::release() {
  if (lock_path_.empty()) return;
  // Unlink only if the lock is still *ours*: a reclaimer that decided we
  // were stale may have replaced it with its own, and blindly unlinking
  // would steal that holder's lease.
  if (readStoreLease(lock_path_).pid == ::getpid()) {
    ::unlink(lock_path_.c_str());
  }
  lock_path_.clear();
}

std::string ResultStore::recordPathFor(const std::string& key,
                                       u64 image_digest) const {
  return config_.dir + "/" +
         recordFileName({seed_, stringDigest(key), image_digest});
}

std::optional<CheckpointRecord> ResultStore::load(const std::string& key,
                                                  u64 image_digest,
                                                  bool& rejected) {
  std::string why;
  std::optional<CheckpointRecord> rec =
      readRecordFile(recordPathFor(key, image_digest),
                     {seed_, stringDigest(key), image_digest}, why);
  // A record for another key with our key's digest is a collision,
  // never this cell.
  if (!why.empty() || (rec && rec->key != key)) {
    rejected = true;
    return std::nullopt;
  }
  return rec;
}

ResultStore::Outcome ResultStore::open(const std::string& key,
                                       u64 image_digest) {
  Outcome out;
  if (degraded()) return out;

  Counter& hits = metrics_.counter("store.hits");
  Counter& misses = metrics_.counter("store.misses");
  Counter& rejected_counter = metrics_.counter("store.rejected");
  const std::string lock_path = recordPathFor(key, image_digest) + ".lock";
  bool waited = false;
  bool counted_rejection = false;

  for (;;) {
    bool rejected = false;
    if (auto rec = load(key, image_digest, rejected)) {
      hits.add();
      if (trace_ != nullptr) {
        trace_->write(TraceEvent(waited ? "store_hit_after_wait"
                                        : "store_hit")
                          .str("cell", key));
      }
      out.record = std::move(rec);
      out.lease.release();
      return out;
    }
    if (rejected && !counted_rejection) {
      // A present-but-untrustworthy record counts once per lookup, not
      // once per poll of a lease we are waiting on.
      counted_rejection = true;
      rejected_counter.add();
      if (trace_ != nullptr) {
        trace_->write(TraceEvent("store_rejected").str("cell", key));
      }
      std::fprintf(stderr,
                   "[wayplace] WP_STORE: rejected untrusted record for "
                   "cell '%s' (torn, tampered or version-mismatched); "
                   "recomputing\n",
                   key.c_str());
    }

    if (!out.lease.owned()) {
      const int fd = ::open(lock_path.c_str(),
                            O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
      if (fd >= 0) {
        const std::string payload = JsonLine()
                                        .num("pid", ::getpid())
                                        .num("boot", bootNonce())
                                        .num("seed", seed_)
                                        .render() +
                                    "\n";
        const ssize_t n =
            ::write(fd, payload.data(), payload.size());
        ::close(fd);
        if (n != static_cast<ssize_t>(payload.size())) {
          ::unlink(lock_path.c_str());
          degrade("cannot write lease '" + lock_path +
                  "': " + std::strerror(errno));
          return out;
        }
        out.lease.lock_path_ = lock_path;
        // Loop once more with the lease held: the previous holder may
        // have published the record between our load and our acquire.
        continue;
      }
      if (errno != EEXIST) {
        degrade("cannot create lease '" + lock_path +
                "': " + std::strerror(errno));
        return out;
      }

      // Someone else holds the lease. Reclaim it if the holder is
      // provably dead, was written in a previous boot (its pid may have
      // been reused by an unrelated live process, so kill(pid, 0) says
      // nothing), or has overstayed WP_LEASE_TIMEOUT_MS; otherwise wait
      // for its record to appear.
      const StoreLeaseHolder holder = readStoreLease(lock_path);
      const u64 age_ms = fileAgeMs(lock_path);
      const bool lease_expired =
          age_ms != static_cast<u64>(-1) &&
          age_ms > config_.lease_timeout_ms;
      if (holder.dead || holder.previous_boot || lease_expired) {
        ::unlink(lock_path.c_str());
        metrics_.counter("store.leases_reclaimed").add();
        const char* why = holder.dead            ? "holder dead"
                          : holder.previous_boot ? "holder from a previous boot"
                                                 : "lease expired";
        if (trace_ != nullptr) {
          trace_->write(TraceEvent("store_lease_reclaimed")
                            .str("cell", key)
                            .str("why", why)
                            .num("holder_pid", static_cast<u64>(
                                     holder.pid > 0 ? holder.pid : 0)));
        }
        std::fprintf(stderr,
                     "[wayplace] WP_STORE: reclaimed stale lease for cell "
                     "'%s' (%s)\n",
                     key.c_str(),
                     holder.dead            ? "holder process is dead"
                     : holder.previous_boot ? "holder is from a previous boot"
                                            : "holder exceeded "
                                              "WP_LEASE_TIMEOUT_MS");
        continue;  // race for the lock again
      }
      if (!waited) {
        waited = true;
        metrics_.counter("store.lease_waits").add();
        if (trace_ != nullptr) {
          trace_->write(TraceEvent("store_lease_wait")
                            .str("cell", key)
                            .num("holder_pid", static_cast<u64>(
                                     holder.pid > 0 ? holder.pid : 0)));
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }

    // We hold the lease and the final re-check still missed: compute.
    misses.add();
    if (trace_ != nullptr) {
      trace_->write(TraceEvent("store_miss").str("cell", key));
    }
    return out;
  }
}

void ResultStore::put(Lease& lease, const std::string& key,
                      u64 image_digest, const RunResult& result,
                      double wall_seconds) {
  if (degraded() || !lease.owned()) {
    lease.release();
    return;
  }
  const std::string path = recordPathFor(key, image_digest);
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid());
  // The header pins what the record below belongs to; a renamed or
  // cross-seed record fails readRecordFile before its payload is read.
  const std::string body = JsonLine()
                               .str("ev", "store")
                               .num("version", 1u)
                               .num("seed", seed_)
                               .str("key", key)
                               .render() +
                           "\n" +
                           renderRecord(key, image_digest, result,
                                        wall_seconds) +
                           "\n";

  const int fd =
      ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    degrade("cannot create '" + tmp + "': " + std::strerror(errno));
    lease.release();
    return;
  }
  std::size_t off = 0;
  bool write_ok = true;
  while (off < body.size()) {
    const ssize_t n = ::write(fd, body.data() + off, body.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      write_ok = false;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  // fsync before rename: once the record name exists, its bytes must be
  // complete — readers trust rename(2) to imply a whole record.
  if (!write_ok || ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    degrade("cannot write '" + tmp + "': " + std::strerror(errno));
    lease.release();
    return;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    degrade("cannot publish '" + path + "': " + std::strerror(errno));
    lease.release();
    return;
  }
  if (!fsyncDirContaining(path)) {
    degrade("cannot fsync store directory for '" + path +
            "': " + std::strerror(errno));
    lease.release();
    return;
  }
  metrics_.counter("store.records_written").add();
  if (trace_ != nullptr) {
    trace_->write(TraceEvent("store_put").str("cell", key));
  }
  lease.release();
}

void ResultStore::degrade(const std::string& reason) {
  // First failure wins; later ones are the same underlying condition.
  bool expected = false;
  if (!degraded_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;
  }
  metrics_.counter("store.degraded").add();
  if (trace_ != nullptr) {
    trace_->write(TraceEvent("store_degraded").str("reason", reason));
  }
  std::fprintf(stderr,
               "[wayplace] warning: WP_STORE degraded — %s; computing "
               "every cell for this run (results are unaffected, only "
               "the cache is lost)\n",
               reason.c_str());
}

}  // namespace wp::driver
