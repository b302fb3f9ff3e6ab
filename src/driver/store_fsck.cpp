#include "driver/store_fsck.hpp"

#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "driver/result_store.hpp"
#include "support/number.hpp"

namespace wp::driver {

namespace {

/// kill(pid, 0) => ESRCH: @p pid provably names no live process.
bool pidDead(pid_t pid) {
  return pid > 0 && ::kill(pid, 0) != 0 && errno == ESRCH;
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

    const std::optional<RecordAddress> address = parseRecordFileName(name);
    if (!address) {
      // Not a name the store writes; inventoried, never touched.
      ++report.foreign;
      os << "FOREIGN     " << name << "\n";
      continue;
    }
    std::string why;
    if (readRecordFile(path, *address, why)) {
      ++report.healthy;
      if (options.verbose) os << "OK          " << name << "\n";
    } else {
      ++report.damaged;
      os << "DAMAGED     " << name << " ("
         << (why.empty() ? "unreadable" : why) << ")\n";
      act(path);
    }
  }

  os << "wp_store_fsck: " << report.healthy << " healthy, "
     << report.damaged << " damaged, " << report.stale_tmp
     << " stale tmp, " << report.live_tmp
     << " live tmp, " << report.foreign << " foreign";
  if (options.remove) os << ", " << report.removed << " removed";
  os << "\n";
  return report;
}

}  // namespace wp::driver
