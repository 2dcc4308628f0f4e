// Small string helpers used across the library.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace decisive {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text) noexcept;

/// Splits `text` on `sep`; the separator is not included in the pieces.
/// Empty fields are preserved ("a,,b" -> {"a", "", "b"}).
std::vector<std::string> split(std::string_view text, char sep);

/// True when `text` starts with / ends with the given prefix or suffix.
bool starts_with(std::string_view text, std::string_view prefix) noexcept;
bool ends_with(std::string_view text, std::string_view suffix) noexcept;

/// ASCII lower-casing (locale independent).
std::string to_lower(std::string_view text);

/// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b) noexcept;

/// Joins the pieces with `sep` between them.
std::string join(const std::vector<std::string>& pieces, std::string_view sep);

/// Parses a double; throws ParseError on garbage or trailing characters.
double parse_double(std::string_view text);

/// Parses a signed 64-bit integer; throws ParseError on failure.
long long parse_int(std::string_view text);

/// Parses a non-negative integer (a job, retry or element count, a size
/// bound); throws ParseError on garbage or a negative value, so a "-1" never
/// wraps to a huge unsigned bound.
std::uint64_t parse_count(std::string_view text);

/// Parses "true"/"false"/"1"/"0" (case insensitive); throws ParseError otherwise.
bool parse_bool(std::string_view text);

/// Formats a double with up to `max_decimals` digits, trimming trailing zeros
/// ("3.1400" -> "3.14", "3.0" -> "3"): printf's "%.*f", rounded half to even
/// on the exact binary value, then trimmed; a value that rounds to zero is
/// "0", never "-0". Exact at any magnitude and precision.
std::string format_number(double value, int max_decimals = 6);

/// format_number, appended to `out` (builds a cell in place).
void append_number(std::string& out, double value, int max_decimals = 6);

/// Formats `value` as a percentage string ("96.77%"), with `decimals` digits.
std::string format_percent(double fraction, int decimals = 2);

}  // namespace decisive
