#include "driver/checkpoint.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "support/fnv.hpp"
#include "support/json.hpp"
#include "support/number.hpp"

namespace wp::driver {

namespace {

std::string hexEncode(const std::vector<u8>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const u8 b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

int hexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

bool hexDecode(const std::string& hex, std::vector<u8>& out) {
  if (hex.size() % 2 != 0) return false;
  out.clear();
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hexNibble(hex[i]);
    const int lo = hexNibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out.push_back(static_cast<u8>((hi << 4) | lo));
  }
  return true;
}

template <class C, class V>
void visitCacheStats(const std::string& prefix, C& c, V&& v) {
  v(prefix + "accesses", c.accesses);
  v(prefix + "hits", c.hits);
  v(prefix + "misses", c.misses);
  v(prefix + "tag_compares", c.tag_compares);
  v(prefix + "matchline_precharges", c.matchline_precharges);
  v(prefix + "full_lookups", c.full_lookups);
  v(prefix + "single_way_lookups", c.single_way_lookups);
  v(prefix + "partial_lookups", c.partial_lookups);
  v(prefix + "no_tag_lookups", c.no_tag_lookups);
  v(prefix + "data_word_reads", c.data_word_reads);
  v(prefix + "data_word_writes", c.data_word_writes);
  v(prefix + "line_fills", c.line_fills);
  v(prefix + "writebacks", c.writebacks);
  v(prefix + "link_reads", c.link_reads);
  v(prefix + "link_writes", c.link_writes);
  v(prefix + "link_invalidations", c.link_invalidations);
  v(prefix + "linked_accesses", c.linked_accesses);
  v(prefix + "duplicate_invalidations", c.duplicate_invalidations);
}

template <class E, class V>
void visitCacheEnergy(const std::string& prefix, E& e, V&& v) {
  v(prefix + "tag", e.tag);
  v(prefix + "data", e.data);
  v(prefix + "fills", e.fills);
  v(prefix + "links", e.links);
}

/// Enumerates every *guest-side* numeric field of a RunResult — the
/// full payload the tables, the per-workload benches and the JSON
/// report consume. One visitor serves serialization, restoration and
/// digesting, so the three can never drift apart. Host timings
/// (simulate/price seconds) are deliberately absent: they are recorded
/// separately and excluded from the stats digest so a record read back
/// re-digests to the same value.
template <class R, class V>
void visitGuestFields(R& r, V&& v) {
  auto& s = r.stats;
  v("instructions", s.instructions);
  v("cycles", s.cycles);
  v("retired_pc_hash", s.retired_pc_hash);
  v("dataflow_hash", s.dataflow_hash);
  visitCacheStats("icache.", s.icache, v);
  visitCacheStats("dcache.", s.dcache, v);
  v("itlb.accesses", s.itlb.accesses);
  v("itlb.misses", s.itlb.misses);
  v("itlb.walks", s.itlb.walks);
  v("fetch.fetches", s.fetch.fetches);
  v("fetch.sameline_skips", s.fetch.sameline_skips);
  v("fetch.wp_single_way", s.fetch.wp_single_way);
  v("fetch.hint_correct", s.fetch.hint_correct);
  v("fetch.hint_miss_lost_saving", s.fetch.hint_miss_lost_saving);
  v("fetch.hint_miss_second_access", s.fetch.hint_miss_second_access);
  v("fetch.waypred_correct", s.fetch.waypred_correct);
  v("fetch.waypred_mispredict", s.fetch.waypred_mispredict);
  v("fetch.extra_cycles", s.fetch.extra_cycles);
  v("fetch.link_faults_dropped", s.fetch.link_faults_dropped);
  v("branches.branches", s.branches.branches);
  v("branches.mispredicts", s.branches.mispredicts);
  v("squashed_probes", s.squashed_probes);
  v("link_flash_clears", s.link_flash_clears);
  v("icache_data_area_factor", s.icache_data_area_factor);
  v("drowsy.wakeups", s.drowsy.wakeups);
  v("drowsy.awake_line_ticks", s.drowsy.awake_line_ticks);
  v("drowsy.drowsy_line_ticks", s.drowsy.drowsy_line_ticks);
  v("drowsy.ticks", s.drowsy.ticks);
  v("icache_lines", s.icache_lines);
  auto& e = r.energy;
  visitCacheEnergy("energy.icache.", e.icache, v);
  visitCacheEnergy("energy.dcache.", e.dcache, v);
  v("energy.itlb", e.itlb);
  v("energy.hint", e.hint);
  v("energy.core", e.core);
  v("energy.memory", e.memory);
  auto& i = r.injected;
  v("injected.events", i.events);
  v("injected.hint_flips", i.hint_flips);
  v("injected.tlb_bit_flips", i.tlb_bit_flips);
  v("injected.tlb_bits_cleared", i.tlb_bits_cleared);
  v("injected.links_scrambled", i.links_scrambled);
  v("injected.mru_scrambles", i.mru_scrambles);
  v("injected.resizes", i.resizes);
  v("layout_chains", r.layout_chains);
  v("layout_repairs", r.layout_repairs);
  v("wp_area_coverage", r.wp_area_coverage);
}

/// Extracts a CheckpointRecord from a parsed "cell" line. Structural
/// validation only — parseRecordLine also verifies the stats digest.
bool readRecord(const JsonReader& fields, CheckpointRecord& rec) {
  bool ok = true;
  const auto get = [&](const std::string& name, auto& out) {
    if (fields.get(name, out) != JsonField::kOk) ok = false;
  };
  std::string ev;
  get("ev", ev);
  get("key", rec.key);
  get("image_digest", rec.image_digest);
  get("stats_digest", rec.stats_digest);
  get("wall_seconds", rec.wall_seconds);
  get("simulate_seconds", rec.result.simulate_seconds);
  get("price_seconds", rec.result.price_seconds);
  get("layout_strategy", rec.result.layout_strategy);
  std::string output_hex;
  get("output", output_hex);
  if (ok && !hexDecode(output_hex, rec.result.output)) ok = false;
  visitGuestFields(rec.result, [&](const std::string& name, auto& field) {
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_floating_point_v<T>) {
      get(name, field);
    } else {
      u64 wide = 0;
      get(name, wide);
      field = static_cast<T>(wide);
    }
  });
  return ok && ev == "cell" && !rec.key.empty();
}

bool unescapeInto(const std::string& s, std::size_t& i, std::string& out) {
  // i points at the opening quote; leaves i past the closing quote.
  ++i;
  while (i < s.size()) {
    const char c = s[i];
    if (c == '"') {
      ++i;
      return true;
    }
    if (c == '\\') {
      if (i + 1 >= s.size()) return false;
      const char e = s[i + 1];
      switch (e) {
        case '"': out += '"'; i += 2; break;
        case '\\': out += '\\'; i += 2; break;
        case 'n': out += '\n'; i += 2; break;
        case 't': out += '\t'; i += 2; break;
        case 'u': {
          if (i + 5 >= s.size()) return false;
          int v = 0;
          for (int k = 2; k <= 5; ++k) {
            const int n = hexNibble(
                static_cast<char>(std::tolower(s[i + static_cast<std::size_t>(k)])));
            if (n < 0) return false;
            v = (v << 4) | n;
          }
          if (v > 0xff) return false;  // we only ever emit control chars
          out += static_cast<char>(v);
          i += 6;
          break;
        }
        default:
          return false;
      }
    } else {
      out += c;
      ++i;
    }
  }
  return false;  // unterminated string: torn line
}

void skipWs(const std::string& s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
}

}  // namespace

bool parseFlatJsonLine(const std::string& line,
                       std::map<std::string, JsonToken>& out) {
  std::size_t i = 0;
  skipWs(line, i);
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  skipWs(line, i);
  if (i < line.size() && line[i] == '}') return true;  // empty object
  while (true) {
    skipWs(line, i);
    if (i >= line.size() || line[i] != '"') return false;
    std::string key;
    if (!unescapeInto(line, i, key)) return false;
    skipWs(line, i);
    if (i >= line.size() || line[i] != ':') return false;
    ++i;
    skipWs(line, i);
    if (i >= line.size()) return false;
    JsonToken tok;
    if (line[i] == '"') {
      tok.is_string = true;
      if (!unescapeInto(line, i, tok.text)) return false;
    } else {
      const std::size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
      std::size_t end = i;
      while (end > start && (line[end - 1] == ' ' || line[end - 1] == '\t')) {
        --end;
      }
      if (end == start) return false;
      tok.text = line.substr(start, end - start);
    }
    if (!out.emplace(std::move(key), std::move(tok)).second) return false;
    skipWs(line, i);
    if (i >= line.size()) return false;
    if (line[i] == '}') return true;
    if (line[i] != ',') return false;
    ++i;
  }
}

bool JsonReader::parse(const std::string& line) {
  tokens_.clear();
  return parseFlatJsonLine(line, tokens_);
}

JsonField JsonReader::get(const std::string& key, std::string& out) const {
  const auto it = tokens_.find(key);
  if (it == tokens_.end()) return JsonField::kAbsent;
  if (!it->second.is_string) return JsonField::kWrongType;
  out = it->second.text;
  return JsonField::kOk;
}

JsonField JsonReader::get(const std::string& key, u64& out) const {
  const auto it = tokens_.find(key);
  if (it == tokens_.end()) return JsonField::kAbsent;
  if (it->second.is_string) return JsonField::kWrongType;
  const std::optional<u64> v = parseUnsigned(it->second.text, /*hex=*/false);
  if (!v) return JsonField::kMalformed;
  out = *v;
  return JsonField::kOk;
}

JsonField JsonReader::get(const std::string& key, double& out) const {
  const auto it = tokens_.find(key);
  if (it == tokens_.end()) return JsonField::kAbsent;
  if (it->second.is_string) return JsonField::kWrongType;
  const std::string& text = it->second.text;  // never empty: see the parser
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE) {
    return JsonField::kMalformed;
  }
  out = v;
  return JsonField::kOk;
}

u64 imageDigest(const mem::Image& image) {
  u64 h = kFnvOffset;
  h = fnv1aBytes(h, image.code.data(), image.code.size());
  h = fnv1aBytes(h, image.data.data(), image.data.size());
  h = fnv1aBytes(h, &image.entry, sizeof image.entry);
  return h;
}

u64 stringDigest(std::string_view s) { return fnv1a(s); }

bool parseRecordLine(const std::string& line, CheckpointRecord& out) {
  JsonReader fields;
  return fields.parse(line) && readRecord(fields, out) &&
         statsDigest(out.result) == out.stats_digest;
}

u64 statsDigest(const RunResult& r) {
  u64 h = kFnvOffset;
  visitGuestFields(r, [&h](const std::string& name, const auto& field) {
    h = fnv1aBytes(h, name);
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_floating_point_v<T>) {
      u64 bits = 0;
      static_assert(sizeof field == sizeof bits);
      std::memcpy(&bits, &field, sizeof bits);
      h = fnv1aBytes(h, &bits, sizeof bits);
    } else {
      const u64 wide = static_cast<u64>(field);
      h = fnv1aBytes(h, &wide, sizeof wide);
    }
  });
  h = fnv1aBytes(h, r.layout_strategy);
  h = fnv1aBytes(h, r.output.data(), r.output.size());
  return h;
}

std::string renderRecord(const std::string& key, u64 image_digest,
                         const RunResult& r, double wall_seconds) {
  JsonLine line;
  line.str("ev", "cell")
      .str("key", key)
      .num("image_digest", image_digest)
      .num("stats_digest", statsDigest(r))
      .num("wall_seconds", wall_seconds)
      .num("simulate_seconds", r.simulate_seconds)
      .num("price_seconds", r.price_seconds)
      .str("layout_strategy", r.layout_strategy)
      .str("output", hexEncode(r.output));
  visitGuestFields(r, [&line](const std::string& name, const auto& field) {
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_floating_point_v<T>) {
      line.num(name, field);
    } else {
      line.num(name, static_cast<u64>(field));
    }
  });
  return line.render();
}

}  // namespace wp::driver
