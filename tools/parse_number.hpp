// Whole-text numeric flag parsing shared by the CLI tools (dbn, dbn_bench).
#pragma once

#include <cctype>
#include <charconv>
#include <optional>
#include <string_view>

namespace dbn::tools {

// A numeric flag value parsed whole into T: it must start with a digit (no
// sign, space, "inf" or "nan"), end with the number, and fit T.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return value;
}

}  // namespace dbn::tools
