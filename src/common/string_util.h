#ifndef MJOIN_COMMON_STRING_UTIL_H_
#define MJOIN_COMMON_STRING_UTIL_H_

#include <charconv>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace mjoin {

/// Concatenates the string representations of all arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  // Comma fold (not `os << ... << args`): the empty pack then expands to
  // nothing instead of a value-less `os;` statement, which -Werror flags.
  ((os << args), ...);
  return os.str();
}

/// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Splits `text` on `sep` (single character); keeps empty fields.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Pads or truncates `text` to exactly `width` characters, left-aligned.
std::string PadRight(std::string_view text, size_t width);

/// Pads (never truncates) `text` to at least `width` characters,
/// right-aligned.
std::string PadLeft(std::string_view text, size_t width);

/// Formats `value` with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits);

/// Human-readable byte count ("1.5 MiB").
std::string FormatBytes(uint64_t bytes);

/// Parses all of `text` as a number of type T: nullopt for an empty value,
/// trailing junk, a value outside T's range, or a sign T cannot hold (so a
/// negative value for an unsigned T).
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace mjoin

#endif  // MJOIN_COMMON_STRING_UTIL_H_
