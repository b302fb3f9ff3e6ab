#include "driver/result_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace wp::driver {

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
  if (!parseRecordLine(record_line, rec)) {
    return fail("record line torn or stats digest mismatch");
  }
  if (rec.key != key) return fail("record key disagrees with the header");
  if (rec.image_digest != address.image_digest) {
    return fail("record image digest disagrees with the filename");
  }
  return rec;
}

std::optional<ResultStore::Config> ResultStore::fromEnv() {
  const char* dir = std::getenv("WP_STORE");
  if (dir == nullptr || *dir == '\0') return std::nullopt;
  return Config{dir};
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
  bool rejected = false;
  out.record = load(key, image_digest, rejected);
  if (out.record) {
    metrics_.counter("store.hits").add();
    if (trace_ != nullptr) {
      trace_->write(TraceEvent("store_hit").str("cell", key));
    }
    return out;
  }
  if (rejected) {
    metrics_.counter("store.rejected").add();
    if (trace_ != nullptr) {
      trace_->write(TraceEvent("store_rejected").str("cell", key));
    }
    std::fprintf(stderr,
                 "[wayplace] WP_STORE: rejected untrusted record for "
                 "cell '%s' (torn, tampered or version-mismatched); "
                 "recomputing\n",
                 key.c_str());
  }
  metrics_.counter("store.misses").add();
  if (trace_ != nullptr) {
    trace_->write(TraceEvent("store_miss").str("cell", key));
  }
  return out;
}

void ResultStore::put(const Lease&, const std::string& key,
                      u64 image_digest, const RunResult& result,
                      double wall_seconds) {
  if (degraded()) return;
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
    return;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    degrade("cannot publish '" + path + "': " + std::strerror(errno));
    return;
  }
  if (!fsyncDirContaining(path)) {
    degrade("cannot fsync store directory for '" + path +
            "': " + std::strerror(errno));
    return;
  }
  metrics_.counter("store.records_written").add();
  if (trace_ != nullptr) {
    trace_->write(TraceEvent("store_put").str("cell", key));
  }
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
