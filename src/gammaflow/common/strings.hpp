// str_cat: builds a string from literal/string pieces and integers in one
// appending pass. Preferred over `"lit" + std::to_string(n)`: besides the
// extra temporaries, GCC 12 at -O3 reports -Wrestrict false positives on
// operator+(const char*, std::string&&) (an insert at position 0 whose
// source it cannot prove disjoint), which -Werror makes fatal in Release.
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>

namespace gammaflow {
namespace detail {

inline void str_cat_piece(std::string& out, std::string_view piece) {
  out.append(piece);
}

template <std::integral T>
  requires(!std::same_as<T, char> && !std::same_as<T, bool>)
void str_cat_piece(std::string& out, T value) {
  char digits[24];
  const auto res = std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, static_cast<std::size_t>(res.ptr - digits));
}

}  // namespace detail

/// Concatenates string-like pieces and integers (decimal), e.g.
/// str_cat("L", i, ".").
template <typename... Pieces>
[[nodiscard]] std::string str_cat(const Pieces&... pieces) {
  std::string out;
  (detail::str_cat_piece(out, pieces), ...);
  return out;
}

}  // namespace gammaflow
