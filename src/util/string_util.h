#ifndef NF2_UTIL_STRING_UTIL_H_
#define NF2_UTIL_STRING_UTIL_H_

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace nf2 {

/// Joins the elements of `parts` with `sep` between them.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view text);

/// ASCII lower-casing.
std::string ToLower(std::string_view text);

/// ASCII upper-casing.
std::string ToUpper(std::string_view text);

/// True when `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Concatenates streamable arguments into one string.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream out;
  (out << ... << args);
  return out.str();
}

}  // namespace nf2

#endif  // NF2_UTIL_STRING_UTIL_H_
