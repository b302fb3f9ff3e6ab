#include "support/json.hpp"

#include <cstdio>

namespace wp {

namespace {

void escapeInto(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string jsonEscape(const std::string& s) {
  std::string out;
  escapeInto(out, s);
  return out;
}

JsonLine& JsonLine::raw(std::string_view key, std::string_view json) {
  if (!body_.empty()) body_ += sep_;
  body_ += '"';
  escapeInto(body_, key);
  body_ += "\": ";
  body_ += json;
  return *this;
}

JsonLine& JsonLine::str(std::string_view key, std::string_view value) {
  raw(key, "\"");
  escapeInto(body_, value);
  body_ += '"';
  return *this;
}

JsonLine& JsonLine::real(std::string_view key, double value) {
  // %.17g round-trips every IEEE double through strtod, so a table
  // served from records prints the bytes its original compute printed.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return raw(key, buf);
}

JsonLine& JsonLine::append(const JsonLine& more) {
  if (!body_.empty() && !more.body_.empty()) body_ += sep_;
  body_ += more.body_;
  return *this;
}

std::string JsonLine::render() const {
  if (indent_ == 0) return "{" + body_ + "}";
  return "{\n" + std::string(indent_, ' ') + body_ + "\n" +
         std::string(indent_ - 2, ' ') + "}";
}

std::string jsonList(const std::vector<std::string>& items, unsigned indent) {
  const std::string pad = "\n" + std::string(indent, ' ');
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? pad : "," + pad) + items[i];
  }
  return out + "\n" + std::string(indent - 2, ' ') + "]";
}

}  // namespace wp
