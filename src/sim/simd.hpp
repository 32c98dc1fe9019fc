// Runtime lane-width selection for the wide simulation kernels.
//
// A lane-width *request* (user-facing: --lane-width=64|256|512|auto) is
// resolved against what this build compiled and what this CPU supports
// into a SimdConfig: the total bit width and the implementation that
// will run it.  Requests never fail — a width the hardware lacks falls
// back to the portable WideWord<NW> implementation at the same width,
// which is bit-identical by construction (and is forced everywhere when
// the build sets SCANC_FORCE_SCALAR_WIDE).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace scanc::sim {

/// User-facing lane-width request.  W64 = the one-lane word alone
/// (SeqSim<std::uint64_t>, no batch engine); Auto = widest profitable
/// lane.
enum class LaneWidth { Auto, W64, W256, W512 };

/// Which implementation executes a wide pass.
enum class SimdIsa { Portable, Avx2, Avx512 };

struct SimdConfig {
  unsigned bits = 64;  ///< total lane width: 64, 256, or 512
  SimdIsa isa = SimdIsa::Portable;

  /// Number of 64-bit lanes (1 = the wide engine is not used).
  [[nodiscard]] std::size_t lanes() const noexcept { return bits / 64; }

  friend bool operator==(const SimdConfig&, const SimdConfig&) = default;
};

/// True when the running CPU supports the ISA (false on non-x86).
[[nodiscard]] bool cpu_has_avx2() noexcept;
[[nodiscard]] bool cpu_has_avx512() noexcept;

/// Resolves a request against compiled TUs + CPU features (see file
/// comment).  Auto resolves to the widest intrinsic implementation
/// available, else portable 256-bit.
[[nodiscard]] SimdConfig resolve_simd(LaneWidth request) noexcept;

[[nodiscard]] const char* isa_name(SimdIsa isa) noexcept;
[[nodiscard]] const char* lane_width_name(LaneWidth w) noexcept;

/// Parses "64" | "256" | "512" | "auto" (nullopt on anything else).
[[nodiscard]] std::optional<LaneWidth> parse_lane_width(
    std::string_view s) noexcept;

}  // namespace scanc::sim
