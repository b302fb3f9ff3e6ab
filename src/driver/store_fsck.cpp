#include "driver/store_fsck.hpp"

#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "driver/checkpoint.hpp"
#include "driver/result_store.hpp"
#include "support/number.hpp"

namespace wp::driver {

namespace {

/// Parses exactly 16 lowercase hex digits starting at @p s[pos].
bool hex16At(const std::string& s, std::size_t pos, u64& out) {
  if (pos + 16 > s.size()) return false;
  u64 v = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const char c = s[pos + i];
    u64 digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<u64>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<u64>(c - 'a') + 10;
    } else {
      return false;
    }
    v = (v << 4) | digit;
  }
  out = v;
  return true;
}

/// Splits a record filename `cell-<seed>-<keydigest>-<image>.rec` into
/// its three address components; false when the name does not follow
/// the store's naming scheme.
bool parseRecordName(const std::string& name, u64& seed, u64& key_digest,
                     u64& image_digest) {
  // "cell-" + 16 + "-" + 16 + "-" + 16 + ".rec" == 59 chars.
  if (name.size() != 59 || name.rfind("cell-", 0) != 0 ||
      name.compare(55, 4, ".rec") != 0 || name[21] != '-' ||
      name[38] != '-') {
    return false;
  }
  return hex16At(name, 5, seed) && hex16At(name, 22, key_digest) &&
         hex16At(name, 39, image_digest);
}

/// True when @p pid provably refers to no live process.
bool pidDead(pid_t pid) {
  return pid > 0 && ::kill(pid, 0) != 0 && errno == ESRCH;
}

/// Re-runs ResultStore::load's verification ladder on one record file,
/// with the (seed, key, image) identity taken from the filename instead
/// of a caller. On failure @p why names the first failed check.
bool verifyRecord(const std::string& path, u64 seed, u64 key_digest,
                  u64 image_digest, std::string& why) {
  std::ifstream in(path);
  if (!in.is_open()) {
    why = "unreadable";
    return false;
  }
  std::string header_line;
  std::string record_line;
  if (!std::getline(in, header_line) || !std::getline(in, record_line)) {
    why = "torn (fewer than two lines)";
    return false;
  }
  std::map<std::string, JsonToken> header;
  if (!parseFlatJsonLine(header_line, header)) {
    why = "torn (malformed header)";
    return false;
  }
  const auto ev = header.find("ev");
  const auto version = header.find("version");
  const auto hseed = header.find("seed");
  const auto hkey = header.find("key");
  if (ev == header.end() || ev->second.text != "store" ||
      version == header.end() || version->second.text != "1") {
    why = "header is not a version-1 store header";
    return false;
  }
  if (hseed == header.end() ||
      hseed->second.text != std::to_string(seed)) {
    why = "header seed disagrees with the filename";
    return false;
  }
  if (hkey == header.end() || stringDigest(hkey->second.text) != key_digest) {
    why = "header key disagrees with the filename's key digest";
    return false;
  }
  CheckpointRecord rec;
  if (parseRecordLine(record_line, rec) != RecordParse::kOk) {
    why = "record line torn or stats digest mismatch";
    return false;
  }
  if (rec.key != hkey->second.text) {
    why = "record key disagrees with the header";
    return false;
  }
  if (rec.image_digest != image_digest) {
    why = "record image digest disagrees with the filename";
    return false;
  }
  return true;
}

}  // namespace

bool parseFsckArgs(int argc, const char* const* argv, FsckOptions& options,
                   std::string& error) {
  options = FsckOptions{};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--remove") {
      options.remove = true;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (!arg.empty() && arg[0] == '-') {
      error = "unknown flag '" + arg + "'";
      return false;
    } else if (!options.dir.empty()) {
      error = "more than one store directory given ('" + options.dir +
              "' and '" + arg + "')";
      return false;
    } else {
      options.dir = arg;
    }
  }
  if (options.dir.empty()) {
    error = "missing store directory argument";
    return false;
  }
  return true;
}

FsckReport fsckStore(const FsckOptions& options, std::ostream& os) {
  FsckReport report;
  DIR* dir = ::opendir(options.dir.c_str());
  if (dir == nullptr) {
    os << "wp_store_fsck: cannot open '" << options.dir << "'\n";
    return report;
  }
  report.dir_ok = true;

  std::vector<std::string> names;
  while (const dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());

  const auto act = [&](const std::string& path) {
    if (!options.remove) return;
    if (::unlink(path.c_str()) == 0) ++report.removed;
  };

  for (const std::string& name : names) {
    const std::string path = options.dir + "/" + name;

    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".lock") == 0) {
      // Lease litter: judged by the store's own reclamation evidence —
      // a dead holder or a previous-boot nonce is stale litter; a live
      // current-boot holder may be mid-compute and is left alone (the
      // running store ages it out via WP_LEASE_TIMEOUT_MS).
      const StoreLeaseHolder holder = readStoreLease(path);
      const bool stale_boot = holder.boot != 0 && bootNonce() != 0 &&
                              holder.boot != bootNonce();
      if (holder.pid == 0 || pidDead(holder.pid) || stale_boot) {
        ++report.stale_leases;
        os << "STALE-LEASE " << name << " ("
           << (holder.pid == 0        ? "torn payload"
               : stale_boot           ? "holder from a previous boot"
                                      : "holder process is dead")
           << ")\n";
        act(path);
      } else {
        ++report.live_leases;
        os << "LIVE-LEASE  " << name << " (pid "
           << static_cast<long>(holder.pid) << ")\n";
      }
      continue;
    }

    const std::size_t tmp_at = name.find(".tmp.");
    if (tmp_at != std::string::npos) {
      // Staging litter from ResultStore::put: the suffix is the writer's
      // pid. A live writer is an in-flight publish; anything else can
      // never be renamed into place again.
      const std::optional<u64> pid =
          parseUnsigned(std::string_view(name).substr(tmp_at + 5),
                        /*hex=*/false);
      const bool live =
          pid && *pid > 0 &&
          *pid <= static_cast<u64>(std::numeric_limits<pid_t>::max()) &&
          !pidDead(static_cast<pid_t>(*pid));
      if (live) {
        ++report.live_tmp;
        os << "LIVE-TMP    " << name << " (pid " << *pid << ")\n";
      } else {
        ++report.stale_tmp;
        os << "STALE-TMP   " << name << " (writer gone)\n";
        act(path);
      }
      continue;
    }

    u64 seed = 0;
    u64 key_digest = 0;
    u64 image_digest = 0;
    if (!parseRecordName(name, seed, key_digest, image_digest)) {
      // Not a name the store writes; inventoried, never touched.
      ++report.foreign;
      os << "FOREIGN     " << name << "\n";
      continue;
    }
    std::string why;
    if (verifyRecord(path, seed, key_digest, image_digest, why)) {
      ++report.healthy;
      if (options.verbose) os << "OK          " << name << "\n";
    } else {
      ++report.damaged;
      os << "DAMAGED     " << name << " (" << why << ")\n";
      act(path);
    }
  }

  os << "wp_store_fsck: " << report.healthy << " healthy, "
     << report.damaged << " damaged, " << report.stale_leases
     << " stale lease(s), " << report.live_leases << " live lease(s), "
     << report.stale_tmp << " stale tmp, " << report.live_tmp
     << " live tmp, " << report.foreign << " foreign";
  if (options.remove) os << ", " << report.removed << " removed";
  os << "\n";
  return report;
}

}  // namespace wp::driver
