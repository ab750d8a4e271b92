// cli_args.hpp — strict numeric command-line arguments, shared by
// campaign_driver and plan_tool.
#pragma once

#include <charconv>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace fortress::tools {

/// `text` as a decimal unsigned integer that fits T. The whole string must
/// be digits: a sign, whitespace, trailing junk or an out-of-range value
/// throws std::runtime_error naming `what` (the flag or positional
/// argument), so a bad argument stops the tool before it writes anything.
template <class T>
T parse_unsigned(const std::string& what, const std::string& text) {
  static_assert(std::is_unsigned_v<T>);
  T value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw std::runtime_error(
        what + ": expected an integer in [0, " +
        std::to_string(std::numeric_limits<T>::max()) + "], got '" + text +
        "'");
  }
  return value;
}

}  // namespace fortress::tools
