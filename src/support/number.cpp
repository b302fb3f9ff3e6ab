#include "support/number.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace wp {

std::optional<u64> parseUnsigned(std::string_view text, bool hex) {
  int base = 10;
  if (hex && text.starts_with("0x")) {
    base = 16;
    text.remove_prefix(2);
  } else if (text.size() > 1 && text[0] == '0') {
    return std::nullopt;  // "010" is neither ten nor octal eight
  }
  // from_chars takes no sign, prefix or whitespace for an unsigned
  // type, and reports overflow instead of wrapping.
  u64 value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

u64 envUnsigned(const char* name, u64 fallback, u64 min, u64 max,
                const char* meaning) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const std::optional<u64> v = parseUnsigned(env, /*hex=*/true);
  if (!v || *v < min || *v > max) {
    std::fprintf(stderr,
                 "error: %s='%s' is not a valid %s (expected a decimal or "
                 "0x-hex integer in [%llu, %llu])\n",
                 name, env, meaning, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max));
    std::exit(1);
  }
  return *v;
}

}  // namespace wp
