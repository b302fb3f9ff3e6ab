// The cell record: the one serialized form of a finished cell, shared
// by the result store (WP_STORE, driver/result_store.hpp) and the sweep
// service's replies — and the one flat-JSON reader (parseFlatJsonLine + JsonReader) for lines
// JsonLine (support/json.hpp) writes.
//
// A record is one flat JSON line carrying the cell key, the full
// guest-side RunResult — every stat the tables, the per-workload benches
// and the WP_JSON report consume — and two digests:
//
//   image_digest  FNV-1a over the code+data bytes of the image the cell
//                 simulated. Readers check it against the *freshly
//                 prepared* image, so a record made under different
//                 code, a different layout pass or different workload
//                 inputs is never served; the cell recomputes instead.
//   stats_digest  FNV-1a over the record's own guest-side payload,
//                 catching torn or hand-edited records.
//
// Doubles round-trip at 17 significant digits, so a cell read back from
// a record prints exactly the bytes its original compute printed.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "driver/runner.hpp"
#include "mem/image.hpp"

namespace wp::driver {

/// One recorded cell: the memo key, verification digests, the payload
/// (full guest-side RunResult), and the host-side timings of the
/// original compute (observability only).
struct CheckpointRecord {
  std::string key;
  u64 image_digest = 0;
  u64 stats_digest = 0;
  RunResult result;
  double wall_seconds = 0.0;  ///< of the original compute
};

/// FNV-1a over an image's code and data bytes (layout identity).
[[nodiscard]] u64 imageDigest(const mem::Image& image);

/// FNV-1a over an arbitrary string (cell keys, store file names).
[[nodiscard]] u64 stringDigest(std::string_view s);

/// FNV-1a over a result's guest-side fields (stats, energy, output,
/// layout ride-alongs) — host-side timings excluded, so a record read
/// back re-digests to the same value.
[[nodiscard]] u64 statsDigest(const RunResult& r);

/// Renders one record line (no trailing newline).
[[nodiscard]] std::string renderRecord(const std::string& key,
                                       u64 image_digest, const RunResult& r,
                                       double wall_seconds);

/// One parsed `"key": value` pair of a flat one-line JSON object (the
/// only JSON shape the result store and the service protocol ever
/// emit).
struct JsonToken {
  bool is_string = false;
  std::string text;  ///< unescaped for strings, raw digits otherwise
};

/// Parses one flat JSON object line into tokens. Returns false on any
/// structural damage — the torn-line case — or a key named twice, so
/// callers can reject the line instead of crashing or picking a copy.
/// Whatever follows the closing brace is ignored.
[[nodiscard]] bool parseFlatJsonLine(const std::string& line,
                                     std::map<std::string, JsonToken>& out);

/// Outcome of one typed JsonReader lookup: found; no such key; a string
/// where a number belongs, or the reverse; or the right JSON type but
/// not a value of the type asked.
enum class JsonField { kOk, kAbsent, kWrongType, kMalformed };

/// Typed lookups over one parsed flat JSON line. Each lookup writes
/// @p out only when it returns kOk.
class JsonReader {
 public:
  /// Parses @p line with parseFlatJsonLine; false when it fails.
  [[nodiscard]] bool parse(const std::string& line);

  /// A JSON string.
  JsonField get(const std::string& key, std::string& out) const;
  /// A decimal integer under parseUnsigned's rule (no hex).
  JsonField get(const std::string& key, u64& out) const;
  /// A number strtod reads whole and in range.
  JsonField get(const std::string& key, double& out) const;

  /// Every parsed field, by key.
  [[nodiscard]] const std::map<std::string, JsonToken>& tokens() const {
    return tokens_;
  }

 private:
  std::map<std::string, JsonToken> tokens_;
};

/// Parses one record line (as produced by renderRecord) and verifies
/// its stats digest: true only for a structurally sound cell record
/// whose payload still matches its digest. The result store and
/// wp_store_fsck both trust records through it, so they judge a record
/// by the same rules.
[[nodiscard]] bool parseRecordLine(const std::string& line,
                                   CheckpointRecord& out);

}  // namespace wp::driver
