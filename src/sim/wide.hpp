// Bit-parallel three-valued logic over words of independent 64-bit lanes.
//
// A word W is kWordLanes<W> independent 64-bit lanes of 64 simulation
// slots each; a WideV3<W> holds one three-valued value per slot with the
// (is0, is1) encoding of sim/logic.hpp (X = (1,1)).  Slot semantics are
// the caller's: the fault simulator uses slot 0 of every lane as that
// lane's fault-free reference and slots 1..63 as faulty machines.
//
// The plain std::uint64_t is the one-lane word (PackedV3 =
// WideV3<std::uint64_t>, sim/packed.hpp): the 64-slot simulator every
// scalar pass runs on.  The wider words let one pass simulate NW
// independent 64-slot simulations at once:
//
//   pattern-parallel (PPSFP)  — lanes carry different scan tests with
//                               the same fault group replicated per lane
//                               (per-lane stimulus, splat injections);
//   wide fault-parallel       — lanes carry different fault groups under
//                               the same test (broadcast stimulus,
//                               per-lane injection masks).
//
// Every operation here is lane-wise (no bit ever crosses a 64-bit lane
// boundary), so each lane evolves exactly as the one-lane word would over
// the same inputs — the bit-identity contract the check/ differ enforces.
//
// Word types and their primitive set — zero<W>(), splat<W>(x),
// load_lanes<W>(p), store_lanes(w, p), any(w), bcast_bit0(w) and the
// bitwise operators:
//   std::uint64_t — one lane, the baseline word;
//   WideWord<NW>  — portable uint64_t[NW]; plain loops the compiler
//                   autovectorizes (and the SCANC_FORCE_SCALAR_WIDE
//                   fallback proves bit-identical on any hardware);
//   Avx2Word      — one __m256i (4 lanes), compiled only in TUs built
//                   with -mavx2;
//   Avx512Word    — one __m512i (8 lanes), compiled only in TUs built
//                   with -mavx512f.
// Runtime dispatch between the multi-lane words lives in sim/simd.hpp.
#pragma once

#include <cstdint>

#include "netlist/gate.hpp"
#include "sim/logic.hpp"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace scanc::sim {

// --- word primitives; the one-lane word is std::uint64_t -------------------

/// Number of 64-bit lanes of word type W.
template <class W>
inline constexpr std::size_t kWordLanes = W::kLanes;
template <>
inline constexpr std::size_t kWordLanes<std::uint64_t> = 1;

/// Every lane = x.  The primary template serves the portable
/// WideWord<NW>; every other word specializes it.
template <class W>
[[nodiscard]] inline W splat(std::uint64_t x) noexcept {
  W r;
  for (std::uint64_t& v : r.w) v = x;
  return r;
}
template <>
[[nodiscard]] inline std::uint64_t splat<std::uint64_t>(
    std::uint64_t x) noexcept {
  return x;
}

/// All lanes zero.
template <class W>
[[nodiscard]] inline W zero() noexcept {
  return splat<W>(0);
}

/// The word whose lane i is p[i] (kWordLanes<W> entries), and its
/// inverse: one vector load or store for every lane.  The primary
/// template serves the portable WideWord<NW>.
template <class W>
[[nodiscard]] inline W load_lanes(const std::uint64_t* p) noexcept {
  W r;
  for (std::size_t i = 0; i < W::kLanes; ++i) r.w[i] = p[i];
  return r;
}
template <>
[[nodiscard]] inline std::uint64_t load_lanes<std::uint64_t>(
    const std::uint64_t* p) noexcept {
  return p[0];
}
inline void store_lanes(std::uint64_t w, std::uint64_t* p) noexcept {
  p[0] = w;
}
/// True when any bit of any lane is set.
[[nodiscard]] constexpr bool any(std::uint64_t w) noexcept { return w != 0; }
/// Per lane: all-ones when the lane's bit 0 is set, else all-zeros
/// (broadcasts each lane's reference-slot bit across the lane).
[[nodiscard]] constexpr std::uint64_t bcast_bit0(std::uint64_t w) noexcept {
  return 0 - (w & 1);
}

// --- portable wide word ----------------------------------------------------

/// NW independent 64-bit lanes in plain arrays.
template <std::size_t NW>
struct WideWord {
  static constexpr std::size_t kLanes = NW;

  std::uint64_t w[NW];

  friend WideWord operator&(WideWord a, WideWord b) noexcept {
    for (std::size_t i = 0; i < NW; ++i) a.w[i] &= b.w[i];
    return a;
  }
  friend WideWord operator|(WideWord a, WideWord b) noexcept {
    for (std::size_t i = 0; i < NW; ++i) a.w[i] |= b.w[i];
    return a;
  }
  friend WideWord operator^(WideWord a, WideWord b) noexcept {
    for (std::size_t i = 0; i < NW; ++i) a.w[i] ^= b.w[i];
    return a;
  }
  friend WideWord operator~(WideWord a) noexcept {
    for (std::size_t i = 0; i < NW; ++i) a.w[i] = ~a.w[i];
    return a;
  }
};

template <std::size_t NW>
inline void store_lanes(const WideWord<NW>& a, std::uint64_t* p) noexcept {
  for (std::size_t i = 0; i < NW; ++i) p[i] = a.w[i];
}
template <std::size_t NW>
[[nodiscard]] inline bool any(const WideWord<NW>& a) noexcept {
  std::uint64_t acc = 0;
  for (const std::uint64_t v : a.w) acc |= v;
  return acc != 0;
}
template <std::size_t NW>
[[nodiscard]] inline WideWord<NW> bcast_bit0(WideWord<NW> a) noexcept {
  for (std::uint64_t& v : a.w) v = bcast_bit0(v);
  return a;
}

#if defined(__AVX2__)
// --- AVX2 word (only visible to TUs compiled with -mavx2) ------------------

/// 4 lanes in one __m256i.
struct Avx2Word {
  static constexpr std::size_t kLanes = 4;

  __m256i v;

  friend Avx2Word operator&(Avx2Word a, Avx2Word b) noexcept {
    return {_mm256_and_si256(a.v, b.v)};
  }
  friend Avx2Word operator|(Avx2Word a, Avx2Word b) noexcept {
    return {_mm256_or_si256(a.v, b.v)};
  }
  friend Avx2Word operator^(Avx2Word a, Avx2Word b) noexcept {
    return {_mm256_xor_si256(a.v, b.v)};
  }
  friend Avx2Word operator~(Avx2Word a) noexcept {
    return {_mm256_xor_si256(a.v, _mm256_set1_epi64x(-1))};
  }
};

template <>
[[nodiscard]] inline Avx2Word splat<Avx2Word>(std::uint64_t x) noexcept {
  return {_mm256_set1_epi64x(static_cast<long long>(x))};
}
template <>
[[nodiscard]] inline Avx2Word load_lanes<Avx2Word>(
    const std::uint64_t* p) noexcept {
  return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
}
inline void store_lanes(const Avx2Word& a, std::uint64_t* p) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a.v);
}
[[nodiscard]] inline bool any(const Avx2Word& a) noexcept {
  return _mm256_testz_si256(a.v, a.v) == 0;
}
[[nodiscard]] inline Avx2Word bcast_bit0(Avx2Word a) noexcept {
  // -(x & 1) per 64-bit lane: all-ones iff the lane's bit 0 is set.
  const __m256i low = _mm256_and_si256(a.v, _mm256_set1_epi64x(1));
  return {_mm256_sub_epi64(_mm256_setzero_si256(), low)};
}
#endif  // __AVX2__

#if defined(__AVX512F__)
// --- AVX-512 word (only visible to TUs compiled with -mavx512f) ------------

/// 8 lanes in one __m512i.
struct Avx512Word {
  static constexpr std::size_t kLanes = 8;

  __m512i v;

  friend Avx512Word operator&(Avx512Word a, Avx512Word b) noexcept {
    return {_mm512_and_si512(a.v, b.v)};
  }
  friend Avx512Word operator|(Avx512Word a, Avx512Word b) noexcept {
    return {_mm512_or_si512(a.v, b.v)};
  }
  friend Avx512Word operator^(Avx512Word a, Avx512Word b) noexcept {
    return {_mm512_xor_si512(a.v, b.v)};
  }
  friend Avx512Word operator~(Avx512Word a) noexcept {
    return {_mm512_xor_si512(a.v, _mm512_set1_epi64(-1))};
  }
};

template <>
[[nodiscard]] inline Avx512Word splat<Avx512Word>(std::uint64_t x) noexcept {
  return {_mm512_set1_epi64(static_cast<long long>(x))};
}
template <>
[[nodiscard]] inline Avx512Word load_lanes<Avx512Word>(
    const std::uint64_t* p) noexcept {
  return {_mm512_loadu_si512(p)};
}
inline void store_lanes(const Avx512Word& a, std::uint64_t* p) noexcept {
  _mm512_storeu_si512(p, a.v);
}
[[nodiscard]] inline bool any(const Avx512Word& a) noexcept {
  return _mm512_test_epi64_mask(a.v, a.v) != 0;
}
[[nodiscard]] inline Avx512Word bcast_bit0(Avx512Word a) noexcept {
  const __m512i low = _mm512_and_si512(a.v, _mm512_set1_epi64(1));
  return {_mm512_sub_epi64(_mm512_setzero_si512(), low)};
}
#endif  // __AVX512F__

// --- three-valued words ----------------------------------------------------

/// One three-valued value per slot of every lane of W.
template <class W>
struct WideV3 {
  W is0{};
  W is1{};
};

/// Every slot of every lane = v.
template <class W>
[[nodiscard]] inline WideV3<W> wide_broadcast(V3 v) noexcept {
  const auto bits = static_cast<std::uint8_t>(v);
  return {splat<W>((bits & 1) ? ~0ULL : 0ULL),
          splat<W>((bits & 2) ? ~0ULL : 0ULL)};
}

template <class W>
[[nodiscard]] inline WideV3<W> w_not(WideV3<W> a) noexcept {
  return {a.is1, a.is0};
}
template <class W>
[[nodiscard]] inline WideV3<W> w_and(WideV3<W> a, WideV3<W> b) noexcept {
  return {a.is0 | b.is0, a.is1 & b.is1};
}
template <class W>
[[nodiscard]] inline WideV3<W> w_or(WideV3<W> a, WideV3<W> b) noexcept {
  return {a.is0 & b.is0, a.is1 | b.is1};
}
template <class W>
[[nodiscard]] inline WideV3<W> w_xor(WideV3<W> a, WideV3<W> b) noexcept {
  return {(a.is0 & b.is0) | (a.is1 & b.is1),
          (a.is0 & b.is1) | (a.is1 & b.is0)};
}

/// Per-lane detection mask: slots holding a binary value that differs
/// from the lane's binary slot-0 reference, slot 0 cleared.  Lanes whose
/// reference slot is X contribute nothing (conservative 3-valued
/// detection: an X never counts as a detection).
template <class W>
[[nodiscard]] inline W wide_detections(const WideV3<W>& v) noexcept {
  const W bin = v.is0 ^ v.is1;         // slots with a binary value
  const W r0 = bcast_bit0(v.is0);      // lane reference can be 0
  const W r1 = bcast_bit0(v.is1);      // lane reference can be 1
  const W refbin = r0 ^ r1;            // lane reference is binary
  return bin & refbin & ((r1 & v.is0) | (r0 & v.is1)) & splat<W>(~1ULL);
}

/// Evaluates an n-ary gate over fanin values produced by a callable
/// (`at(i)` returns the WideV3 read through fanin pin i): the frame
/// program's generic tail (gates the op arrays do not cover) and the
/// re-evaluation of a gate under branch injections (sim/seq_sim.hpp).
/// `type` must be combinational.
template <class W, class FaninAt>
[[nodiscard]] inline WideV3<W> wide_eval_gate_at(netlist::GateType type,
                                                 std::size_t arity,
                                                 FaninAt&& at) noexcept {
  using netlist::GateType;
  switch (type) {
    case GateType::Buf:
      return at(0);
    case GateType::Not:
      return w_not(at(0));
    case GateType::And:
    case GateType::Nand: {
      WideV3<W> acc = at(0);
      for (std::size_t i = 1; i < arity; ++i) acc = w_and(acc, at(i));
      return type == GateType::Nand ? w_not(acc) : acc;
    }
    case GateType::Or:
    case GateType::Nor: {
      WideV3<W> acc = at(0);
      for (std::size_t i = 1; i < arity; ++i) acc = w_or(acc, at(i));
      return type == GateType::Nor ? w_not(acc) : acc;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      WideV3<W> acc = at(0);
      for (std::size_t i = 1; i < arity; ++i) acc = w_xor(acc, at(i));
      return type == GateType::Xnor ? w_not(acc) : acc;
    }
    default:
      // Sources are never evaluated from fanins.
      return wide_broadcast<W>(V3::X);
  }
}

}  // namespace scanc::sim
