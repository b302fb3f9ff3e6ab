// The one strict unsigned-integer reader.
//
// Every numeric environment knob, flat-JSON field (store records,
// service requests), layout param, file-name pid suffix and
// CLI flag goes through parseUnsigned, so one rule decides which text is
// a number: a typo, a sign, padding or a leading zero is never silently
// read as some other value. envUnsigned adds the one startup error every
// numeric WP_* knob prints.
#pragma once

#include <optional>
#include <string_view>

#include "support/bitops.hpp"

namespace wp {

/// Reads the whole of @p text as an unsigned 64-bit integer: decimal
/// digits with no sign, no whitespace and no leading zero ("0" itself
/// excepted). With @p hex, "0x" followed by hex digits is accepted too.
/// nullopt when the text breaks that rule or the value exceeds u64.
[[nodiscard]] std::optional<u64> parseUnsigned(std::string_view text,
                                               bool hex);

/// Environment knob @p name read with parseUnsigned(hex = true). Unset
/// or empty gives @p fallback; any other value that fails the reader or
/// lies outside [@p min, @p max] prints
///   error: NAME='value' is not a valid MEANING (expected a decimal or
///   0x-hex integer in [min, max])
/// and exits 1, so a typo is a startup error, never another experiment.
[[nodiscard]] u64 envUnsigned(const char* name, u64 fallback, u64 min,
                              u64 max, const char* meaning);

}  // namespace wp
