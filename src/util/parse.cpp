#include "util/parse.hpp"

#include <charconv>
#include <cmath>
#include <system_error>

namespace scanc::util {

std::optional<std::uint64_t> parse_uint(std::string_view s) noexcept {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

std::optional<double> parse_finite(std::string_view s) noexcept {
  double v = 0.0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

}  // namespace scanc::util
