#include "decisive/base/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

#include "decisive/base/error.hpp"

namespace decisive {

namespace {
bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
}
}  // namespace

std::string_view trim(std::string_view text) noexcept {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> pieces;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      pieces.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return pieces;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) noexcept {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) out += sep;
    out += pieces[i];
  }
  return out;
}

double parse_double(std::string_view text) {
  const std::string_view t = trim(text);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  if (ec != std::errc() || ptr != t.data() + t.size()) {
    throw ParseError("expected a number, got '" + std::string(text) + "'");
  }
  return value;
}

long long parse_int(std::string_view text) {
  const std::string_view t = trim(text);
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  if (ec != std::errc() || ptr != t.data() + t.size()) {
    throw ParseError("expected an integer, got '" + std::string(text) + "'");
  }
  return value;
}

std::uint64_t parse_count(std::string_view text) {
  const long long value = parse_int(text);
  if (value < 0) {
    throw ParseError("expected a count >= 0, got '" + std::string(text) + "'");
  }
  return static_cast<std::uint64_t>(value);
}

bool parse_bool(std::string_view text) {
  const std::string_view t = trim(text);
  if (iequals(t, "true") || t == "1") return true;
  if (iequals(t, "false") || t == "0") return false;
  throw ParseError("expected a boolean, got '" + std::string(text) + "'");
}

namespace {

/// Appends `value` as printf's "%.*f" would render it, at any magnitude: a
/// finite double can need 309 integer digits, so a fixed-size buffer is only
/// the first try. A negative precision means 6, as it does for printf.
void append_fixed(std::string& out, double value, int decimals) {
  if (decimals < 0) decimals = 6;
  char buffer[384];
  const auto fixed = std::to_chars(buffer, buffer + sizeof buffer, value,
                                   std::chars_format::fixed, decimals);
  if (fixed.ec == std::errc()) {
    out.append(buffer, fixed.ptr);
    return;
  }
  std::string wide(static_cast<size_t>(decimals) + 320, '\0');
  const auto exact = std::to_chars(wide.data(), wide.data() + wide.size(), value,
                                   std::chars_format::fixed, decimals);
  out.append(wide.data(), exact.ptr);
}

}  // namespace

std::string format_number(double value, int max_decimals) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  std::string out;
  append_fixed(out, value, max_decimals);
  if (out.find('.') != std::string::npos) {
    while (out.back() == '0') out.pop_back();
    if (out.back() == '.') out.pop_back();
  }
  if (out == "-0") out = "0";
  return out;
}

std::string format_percent(double fraction, int decimals) {
  std::string out;
  append_fixed(out, fraction * 100.0, decimals);
  out += '%';
  return out;
}

}  // namespace decisive
