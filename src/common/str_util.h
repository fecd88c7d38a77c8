#ifndef GMDJ_COMMON_STR_UTIL_H_
#define GMDJ_COMMON_STR_UTIL_H_

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace gmdj {

/// Concatenates `parts` into one string, reserved once. Use it instead of
/// `"(" + s + ")"` chains: GCC 12 reports a false -Wrestrict on inlined
/// `const char* + std::string` concatenation at -O2 and above.
std::string StrCat(std::initializer_list<std::string_view> parts);

/// Joins `parts` with `sep` ("a", "b" -> "a, b").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on the character `sep`; keeps empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Left-pads `s` with spaces to `width` (no-op when already wider).
std::string PadLeft(std::string_view s, size_t width);

/// Right-pads `s` with spaces to `width`.
std::string PadRight(std::string_view s, size_t width);

}  // namespace gmdj

#endif  // GMDJ_COMMON_STR_UTIL_H_
