// The one flat-JSON writer. Every JSON line the harness writes — store
// records and headers, wp_serve replies,
// WP_TRACE events and the WP_JSON report — is built by JsonLine; the
// one reader is parseFlatJsonLine plus JsonReader (driver/checkpoint.hpp).
#pragma once

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace wp {

/// Escapes @p s for inclusion inside a double-quoted JSON string.
[[nodiscard]] std::string jsonEscape(const std::string& s);

/// One JSON object under construction. Fields print in call order as
/// `"key": value`, joined by ", " inside {} — or, given an @p indent
/// (>= 2), one field per line that many spaces in, with the closing
/// brace two spaces left of them (the WP_JSON report's shape).
class JsonLine {
 public:
  JsonLine() = default;
  explicit JsonLine(unsigned indent)
      : sep_(",\n" + std::string(indent, ' ')), indent_(indent) {}

  /// A string, escaped by jsonEscape.
  JsonLine& str(std::string_view key, std::string_view value);
  /// An integer in decimal, or a double as %.17g (strtod reads back the
  /// identical bits).
  template <class T>
  JsonLine& num(std::string_view key, T value) {
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    if constexpr (std::is_floating_point_v<T>) {
      return real(key, value);
    } else {
      return raw(key, std::to_string(value));
    }
  }
  JsonLine& boolean(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  /// A pre-rendered value: `null`, a nested object or a list.
  JsonLine& raw(std::string_view key, std::string_view json);
  /// Continues with @p more's fields, in their order.
  JsonLine& append(const JsonLine& more);

  /// The finished object, without a trailing newline.
  [[nodiscard]] std::string render() const;

 private:
  JsonLine& real(std::string_view key, double value);

  std::string body_;  ///< the fields so far, without the braces
  std::string sep_ = ", ";
  unsigned indent_ = 0;
};

/// A JSON list of pre-rendered @p items laid out like an indented
/// JsonLine: one item per line @p indent (>= 2) spaces in.
[[nodiscard]] std::string jsonList(const std::vector<std::string>& items,
                                   unsigned indent);

}  // namespace wp
