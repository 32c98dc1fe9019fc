// The one-lane word's slot view: PackedV3 is WideV3<std::uint64_t>
// (sim/wide.hpp), 64 independent three-valued simulation slots per value.
// Slot semantics are defined by the caller (the fault simulator uses
// slot 0 as the fault-free machine and slots 1..63 as faulty machines;
// the fault-free trace builder uses slots as independent tests).  The
// gate evaluator and detection word are the word-generic ones of
// sim/wide.hpp; this header adds per-slot access and the scalar
// reference evaluator.
#pragma once

#include <cstdint>
#include <span>

#include "netlist/gate.hpp"
#include "sim/logic.hpp"
#include "sim/wide.hpp"

namespace scanc::sim {

/// 64 three-valued values, one per bit position.
using PackedV3 = WideV3<std::uint64_t>;

[[nodiscard]] constexpr bool operator==(const PackedV3& a,
                                        const PackedV3& b) noexcept {
  return a.is0 == b.is0 && a.is1 == b.is1;
}

/// Broadcasts one scalar value to all 64 slots.
[[nodiscard]] inline PackedV3 broadcast(V3 v) noexcept {
  return wide_broadcast<std::uint64_t>(v);
}

/// Extracts the scalar value of one slot.
[[nodiscard]] constexpr V3 slot(const PackedV3& v, unsigned bit) noexcept {
  const std::uint8_t b0 = (v.is0 >> bit) & 1;
  const std::uint8_t b1 = (v.is1 >> bit) & 1;
  return static_cast<V3>(b0 | (b1 << 1));
}

/// Writes a scalar value into one slot.
constexpr void set_slot(PackedV3& v, unsigned bit, V3 value) noexcept {
  const std::uint64_t mask = 1ULL << bit;
  const auto bits = static_cast<std::uint8_t>(value);
  v.is0 = (bits & 1) ? (v.is0 | mask) : (v.is0 & ~mask);
  v.is1 = (bits & 2) ? (v.is1 | mask) : (v.is1 & ~mask);
}

/// Slots where `v` holds a binary value that differs from the binary
/// reference value `ref` (the conservative detection criterion: an X in a
/// faulty machine never counts as a detection).
[[nodiscard]] constexpr std::uint64_t differs_from_reference(
    PackedV3 v, bool ref_one) noexcept {
  // Value is binary-0 while reference is 1, or binary-1 while ref is 0.
  return (v.is0 ^ v.is1) & (ref_one ? v.is0 : v.is1);
}

/// Scalar gate evaluation over V3 fanins (reference model for tests).
[[nodiscard]] inline V3 eval_gate_scalar(netlist::GateType type,
                                         std::span<const V3> in) noexcept {
  using netlist::GateType;
  switch (type) {
    case GateType::Buf:
      return in[0];
    case GateType::Not:
      return v3_not(in[0]);
    case GateType::And:
    case GateType::Nand: {
      V3 acc = in[0];
      for (std::size_t i = 1; i < in.size(); ++i) acc = v3_and(acc, in[i]);
      return type == GateType::Nand ? v3_not(acc) : acc;
    }
    case GateType::Or:
    case GateType::Nor: {
      V3 acc = in[0];
      for (std::size_t i = 1; i < in.size(); ++i) acc = v3_or(acc, in[i]);
      return type == GateType::Nor ? v3_not(acc) : acc;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      V3 acc = in[0];
      for (std::size_t i = 1; i < in.size(); ++i) acc = v3_xor(acc, in[i]);
      return type == GateType::Xnor ? v3_not(acc) : acc;
    }
    default:
      return V3::X;
  }
}

}  // namespace scanc::sim
