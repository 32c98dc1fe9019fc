// Strict numeric parsing for command-line flags and environment
// variables: bad input is rejected, never coerced.  Each parser accepts
// exactly one number spanning the whole string — no empty input, no
// surrounding whitespace, no trailing garbage, no out-of-range value.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace scanc::util {

/// Unsigned decimal integer: digits only (a sign is rejected, so "-1"
/// never wraps to 2^64-1), within uint64_t.
[[nodiscard]] std::optional<std::uint64_t> parse_uint(
    std::string_view s) noexcept;

/// Finite decimal floating-point value (optional leading '-', fixed or
/// scientific notation); "inf", "nan" and overflowing values are
/// rejected.
[[nodiscard]] std::optional<double> parse_finite(std::string_view s) noexcept;

}  // namespace scanc::util
