// Primitives every fault-simulation frame loop shares: partial-scan
// masking of scan-in states, the transition launch test over a fault
// group's sites, and the per-pass frame counters.  GroupWorker, the wide
// BatchEngine passes and FaultSimulator (trace acquisition, incremental
// sessions) all use these single definitions; only the independent
// scalar oracle (src/check) keeps its own copies.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>

#include "fault/fault_list.hpp"
#include "sim/injection.hpp"
#include "sim/node_trace.hpp"
#include "util/bitset.hpp"
#include "util/telemetry.hpp"

namespace scanc::fault {

/// Group capacity: 63 faulty machines per pass (slot 0 is fault-free).
inline constexpr std::size_t kGroupSize = 63;

/// Number of <= 63-class groups covering `num_targets` classes.
[[nodiscard]] constexpr std::size_t num_groups(
    std::size_t num_targets) noexcept {
  return (num_targets + kGroupSize - 1) / kGroupSize;
}

/// Calls fn(j) for every group member j whose slot bit j+1 is set in
/// `bits` (bit 0, the reference slot, must be clear).
template <class Fn>
void for_each_slot(std::uint64_t bits, Fn fn) {
  while (bits != 0) {
    const int bit = std::countr_zero(bits);
    bits &= bits - 1;
    fn(static_cast<std::size_t>(bit) - 1);
  }
}

/// `scan_in` with the positions off the scan chain forced to X (their
/// state is unknown at test start under partial scan).
[[nodiscard]] inline sim::Vector3 mask_scan_in(const sim::Vector3& scan_in,
                                               const util::Bitset& scan_mask) {
  sim::Vector3 masked = scan_in;
  if (scan_mask.all()) return masked;
  for (std::size_t i = 0; i < masked.size(); ++i) {
    if (!scan_mask.test(i)) masked[i] = sim::V3::X;
  }
  return masked;
}

/// One transition-fault activation site: a stem plus the stale value the
/// delayed transition leaves behind (the representative's stuck value).
struct TdfSite {
  netlist::NodeId node;
  bool stale;
};

/// A fault group's activation sites (site j = group[j], slot j+1).  The
/// delayed transition away from `stale` is launched in a frame when the
/// fault-free site value was `stale` in the previous frame and is the
/// opposite binary value now.
class TdfSites {
 public:
  void build(const FaultList& faults, std::span<const FaultClassId> group) {
    assert(group.size() <= kGroupSize);
    size_ = group.size();
    for (std::size_t j = 0; j < size_; ++j) {
      const Fault& f = faults.representative(group[j]);
      assert(f.pin == sim::kStemPin);
      nodes_[j] = f.node;
      keys_[j] = launch_key(f.value);
    }
  }

  /// Slot mask of the sites launched across two consecutive fault-free
  /// frames, each given as its NodeId-indexed node values.  Branch-free:
  /// one key per site packs (before, now) and compares it with the
  /// launching pair.
  [[nodiscard]] std::uint64_t activation(std::span<const sim::V3> before,
                                         std::span<const sim::V3> now) const {
    std::uint64_t act = 0;
    for (std::size_t j = 0; j < size_; ++j) {
      const netlist::NodeId n = nodes_[j];
      const unsigned key = static_cast<unsigned>(before[n]) |
                           static_cast<unsigned>(now[n]) << 2;
      act |= static_cast<std::uint64_t>(key == keys_[j]) << (j + 1);
    }
    return act;
  }

  /// Slot mask of the sites launched in frame `t` of `trace` (t >= 1;
  /// frame 0 has no launch frame and is never active).
  [[nodiscard]] std::uint64_t activation(const sim::NodeTrace& trace,
                                         std::size_t t) const {
    assert(t >= 1);
    return activation(trace.frame(t - 1), trace.frame(t));
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] TdfSite operator[](std::size_t j) const {
    return TdfSite{nodes_[j], keys_[j] == launch_key(true)};
  }

 private:
  /// (before, now) key of the launching pair: stale, then its opposite.
  [[nodiscard]] static constexpr std::uint8_t launch_key(bool stale) {
    const auto from = static_cast<unsigned>(stale ? sim::V3::One
                                                  : sim::V3::Zero);
    const auto to = static_cast<unsigned>(stale ? sim::V3::Zero
                                                : sim::V3::One);
    return static_cast<std::uint8_t>(from | to << 2);
  }

  std::size_t size_ = 0;
  std::array<netlist::NodeId, kGroupSize> nodes_{};
  std::array<std::uint8_t, kGroupSize> keys_{};
};

/// Batches one pass's frame counters into locals and publishes them once
/// when the pass ends, keeping the frame loops free of telemetry calls.
/// Wide passes count lane-frames (one unit per observed lane per frame)
/// so FramesSimulated stays comparable with the per-test passes.
struct FrameTally {
  std::uint64_t simulated = 0;
  std::uint64_t tdf_activations = 0;
  std::uint64_t tdf_skipped = 0;
  std::uint64_t patched = 0;
  ~FrameTally() {
    if (simulated != 0) obs::add(obs::Counter::FramesSimulated, simulated);
    if (tdf_activations != 0) {
      obs::add(obs::Counter::TdfActivations, tdf_activations);
    }
    if (tdf_skipped != 0) {
      obs::add(obs::Counter::TdfFramesSkipped, tdf_skipped);
    }
    if (patched != 0) obs::add(obs::Counter::PatchedGateEvals, patched);
  }
};

}  // namespace scanc::fault
