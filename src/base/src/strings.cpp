#include "decisive/base/strings.hpp"

#include <algorithm>
#include <bit>
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

constexpr std::uint32_t kPow10[] = {1,      10,      100,      1000,      10000,
                                    100000, 1000000, 10000000, 100000000, 1000000000};

/// Writes the decimal digits of `n` ending just before `end`, zero-padded to
/// at least `width` digits; returns the first digit written.
char* write_digits_backwards(char* end, std::uint32_t n, int width) {
  char* p = end;
  do {
    *--p = static_cast<char>('0' + n % 10);
    n /= 10;
  } while (n != 0 || end - p < width);
  return p;
}

/// The exact kernel of append_fixed for |value| < 1e9 and 0 <= decimals <=
/// 9. A finite double is m * 2^e with an integer m < 2^53, so |value| * 10^d
/// is m * 10^d (below 2^83) shifted by e: the quotient and the remainder of
/// that shift are exact in 128 bits, and rounding half to even on the
/// remainder is what printf's "%.*f" does. `trim` drops trailing fraction
/// zeros (and the point), and renders a value that rounds to zero as "0".
void append_fixed_small(std::string& out, double value, int decimals, bool trim) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const bool negative = (bits >> 63) != 0;
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  std::uint64_t mantissa = bits & ((std::uint64_t{1} << 52) - 1);
  int exponent = -1074;  // subnormals and zero
  if (biased != 0) {
    mantissa |= std::uint64_t{1} << 52;
    exponent = biased - 1075;
  }
  // A value below 1e9 < 2^30 has exponent < -22, and a shift of 84 or more
  // leaves a remainder below half of 2^shift, so the result rounds to 0.
  const unsigned __int128 scaled =
      static_cast<unsigned __int128>(mantissa) * kPow10[decimals];
  std::uint64_t rounded = 0;  // |value| * 10^decimals, rounded: at most 1e18
  const int shift = -exponent;
  if (shift < 84) {
    const unsigned __int128 quotient = scaled >> shift;
    const unsigned __int128 remainder = scaled - (quotient << shift);
    const unsigned __int128 half = static_cast<unsigned __int128>(1) << (shift - 1);
    rounded = static_cast<std::uint64_t>(quotient);
    if (remainder > half || (remainder == half && (rounded & 1) != 0)) ++rounded;
  }

  auto integer = static_cast<std::uint32_t>(rounded / kPow10[decimals]);
  auto fraction = static_cast<std::uint32_t>(rounded % kPow10[decimals]);
  if (trim) {
    while (decimals > 0 && fraction % 10 == 0) {
      fraction /= 10;
      --decimals;
    }
  }
  char buffer[24];  // sign, 10 integer digits, point, 9 fraction digits
  char* const end = buffer + sizeof buffer;
  char* begin = end;
  if (decimals > 0) {
    begin = write_digits_backwards(end, fraction, decimals);
    *--begin = '.';
  }
  begin = write_digits_backwards(begin, integer, 1);
  if (negative && !(trim && rounded == 0)) *--begin = '-';
  out.append(begin, end);
}

/// Appends `value` as printf's "%.*f" would render it, at any magnitude;
/// `trim` as for append_fixed_small. A negative precision means 6, as it
/// does for printf. Every FIT, share and FIT product takes the exact integer
/// kernel; std::to_chars renders the rest, and since a finite double can
/// need 309 integer digits, a fixed-size buffer is only its first try.
void append_fixed(std::string& out, double value, int decimals, bool trim) {
  if (decimals < 0) decimals = 6;
  if (decimals <= 9 && std::fabs(value) < 1e9) {
    append_fixed_small(out, value, decimals, trim);
    return;
  }
  const size_t start = out.size();
  char buffer[384];
  const auto fixed = std::to_chars(buffer, buffer + sizeof buffer, value,
                                   std::chars_format::fixed, decimals);
  if (fixed.ec == std::errc()) {
    out.append(buffer, fixed.ptr);
  } else {
    std::string wide(static_cast<size_t>(decimals) + 320, '\0');
    const auto exact = std::to_chars(wide.data(), wide.data() + wide.size(), value,
                                     std::chars_format::fixed, decimals);
    out.append(wide.data(), exact.ptr);
  }
  if (!trim) return;
  if (out.find('.', start) != std::string::npos) {
    while (out.back() == '0') out.pop_back();
    if (out.back() == '.') out.pop_back();
  }
  if (out.compare(start, std::string::npos, "-0") == 0) out.erase(start, 1);
}

}  // namespace

void append_number(std::string& out, double value, int max_decimals) {
  if (std::isnan(value)) {
    out += "nan";
  } else if (std::isinf(value)) {
    out += value > 0 ? "inf" : "-inf";
  } else {
    append_fixed(out, value, max_decimals, true);
  }
}

std::string format_number(double value, int max_decimals) {
  std::string out;
  append_number(out, value, max_decimals);
  return out;
}

std::string format_percent(double fraction, int decimals) {
  std::string out;
  append_fixed(out, fraction * 100.0, decimals, false);
  out += '%';
  return out;
}

}  // namespace decisive
