// Offline integrity checker for WP_STORE directories (wp_store_fsck).
//
// A crash-only system accumulates litter by design: a SIGKILLed sweep
// can leave a .tmp staging file behind, and a disk fault can tear a
// record despite the write/fsync/rename discipline. The running store
// already defends itself (torn records are rejected and recomputed) —
// fsck is the *audit* form of the same rules, and it owns no copy of
// them: it walks the directory once, maps every record name back to its
// address with the store's parseRecordFileName, checks every record
// with the store's own readRecordFile (header identity, the record's
// own stats digest, the image digest), classifies every staging file by
// its writer's pid, and either reports (default) or removes (--remove)
// what the store would never serve. Anything else — a README, or a
// .lock file an older store left behind — is foreign: listed, never
// removed, never counted against health.
//
// fsck is seed-agnostic: record filenames carry their seed, and the
// header inside must agree — stores legitimately host records from many
// seeds side by side.
#pragma once

#include <iosfwd>
#include <string>

#include "support/bitops.hpp"

namespace wp::driver {

struct FsckOptions {
  std::string dir;
  bool remove = false;   ///< unlink damaged records and stale litter
  bool verbose = false;  ///< also print one line per healthy record
};

/// Parses wp_store_fsck's argv: [--remove] [--verbose] DIR. Returns
/// false with @p error set on bad usage (unknown flag, missing or
/// repeated DIR) — the caller prints usage and exits 2. Never exits
/// itself, so tests can drive it in-process.
[[nodiscard]] bool parseFsckArgs(int argc, const char* const* argv,
                                 FsckOptions& options, std::string& error);

/// What the walk found. The store is healthy when nothing damaged or
/// stale remains; `foreign` files are inventoried but never count
/// against health (and are never removed — fsck only touches files the
/// store itself wrote).
struct FsckReport {
  bool dir_ok = false;    ///< directory existed and was listable
  u64 healthy = 0;        ///< records that verify end to end
  u64 damaged = 0;        ///< torn, misnamed or digest-mismatched records
  u64 stale_tmp = 0;      ///< .tmp.<pid> staging files with a dead writer
  u64 live_tmp = 0;       ///< .tmp.<pid> with a live writer (in-flight put)
  u64 foreign = 0;        ///< files the store never writes (left alone)
  u64 removed = 0;        ///< files unlinked under --remove
  [[nodiscard]] bool clean() const {
    return dir_ok && damaged == 0 && stale_tmp == 0;
  }
};

/// Walks @p options.dir per the rules above, printing findings to
/// @p os (one line per problem; --verbose adds healthy records).
/// Deterministic output: entries are visited in sorted name order.
FsckReport fsckStore(const FsckOptions& options, std::ostream& os);

}  // namespace wp::driver
