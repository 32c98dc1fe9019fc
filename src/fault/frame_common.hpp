// Primitives every fault-simulation frame loop shares: partial-scan
// masking of scan-in states, the transition launch test over cached
// fault sites, and the per-pass frame counters.  GroupWorker, the wide
// BatchEngine passes and FaultSimulator (trace acquisition, incremental
// sessions) all use these single definitions; only the independent
// scalar oracle (src/check) keeps its own copies.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_list.hpp"
#include "sim/injection.hpp"
#include "sim/node_trace.hpp"
#include "util/bitset.hpp"
#include "util/telemetry.hpp"

namespace scanc::fault {

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

/// Transition launch test: the delayed transition away from `stale` is
/// launched when the fault-free site value was `stale` in the previous
/// frame and is the opposite binary value now.
[[nodiscard]] constexpr bool tdf_launched(sim::V3 before, sim::V3 now,
                                          bool stale) noexcept {
  return before == (stale ? sim::V3::One : sim::V3::Zero) &&
         now == (stale ? sim::V3::Zero : sim::V3::One);
}

/// One transition-fault activation site: a stem plus the stale value the
/// delayed transition leaves behind (the representative's stuck value).
struct TdfSite {
  netlist::NodeId node;
  bool stale;
};

/// A fault group's activation sites (site j = group[j], slot j+1).
class TdfSites {
 public:
  void build(const FaultList& faults, std::span<const FaultClassId> group) {
    sites_.clear();
    sites_.reserve(group.size());
    for (const FaultClassId id : group) {
      const Fault& f = faults.representative(id);
      assert(f.pin == sim::kStemPin);
      sites_.push_back(TdfSite{f.node, f.value});
    }
  }

  /// Slot mask of the sites launched in frame `t` of `trace` (t >= 1;
  /// frame 0 has no launch frame and is never active).
  [[nodiscard]] std::uint64_t activation(const sim::NodeTrace& trace,
                                         std::size_t t) const {
    assert(t >= 1);
    std::uint64_t act = 0;
    for (std::size_t j = 0; j < sites_.size(); ++j) {
      const TdfSite& s = sites_[j];
      if (tdf_launched(trace.value(t - 1, s.node), trace.value(t, s.node),
                       s.stale)) {
        act |= 1ULL << (j + 1);
      }
    }
    return act;
  }

  [[nodiscard]] std::size_t size() const noexcept { return sites_.size(); }
  [[nodiscard]] const TdfSite& operator[](std::size_t j) const {
    return sites_[j];
  }

 private:
  std::vector<TdfSite> sites_;
};

/// Batches one pass's frame counters into locals and publishes them once
/// when the pass ends, keeping the frame loops free of telemetry calls.
/// Wide passes count lane-frames (one unit per observed lane per frame)
/// so FramesSimulated stays comparable with the per-test passes.
struct FrameTally {
  std::uint64_t simulated = 0;
  std::uint64_t tdf_activations = 0;
  std::uint64_t tdf_skipped = 0;
  ~FrameTally() {
    if (simulated != 0) obs::add(obs::Counter::FramesSimulated, simulated);
    if (tdf_activations != 0) {
      obs::add(obs::Counter::TdfActivations, tdf_activations);
    }
    if (tdf_skipped != 0) {
      obs::add(obs::Counter::TdfFramesSkipped, tdf_skipped);
    }
  }
};

}  // namespace scanc::fault
