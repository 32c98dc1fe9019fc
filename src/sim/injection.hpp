// Fault-injection bookkeeping for the bit-parallel simulator.
//
// An injection forces the value of one circuit *line* to a stuck value in
// the simulation slots selected by a mask of word type W (one 64-bit slot
// mask per lane, sim/wide.hpp).  Lines are either stems (a node's output,
// pin == kStemPin) or branches (the connection feeding fanin `pin` of a
// node).  The fault simulator assigns one slot per fault and registers
// the corresponding injections here before each pass.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"
#include "sim/wide.hpp"

namespace scanc::sim {

/// Pin value denoting a stem (node output) injection.
inline constexpr int kStemPin = -1;

/// One stuck-line injection.
template <class W>
struct Injection {
  std::int32_t pin = kStemPin;  ///< fanin index, or kStemPin for the stem
  bool stuck_one = false;       ///< stuck-at-1 if true, else stuck-at-0
  W mask{};                     ///< simulation slots the fault occupies
};

/// Applies every stem injection in `injs` to a node's output value.
template <class W>
[[nodiscard]] inline WideV3<W> apply_stem(
    WideV3<W> v, std::span<const Injection<W>> injs) noexcept {
  for (const Injection<W>& inj : injs) {
    if (inj.pin == kStemPin) v = w_inject(v, inj.mask, inj.stuck_one);
  }
  return v;
}

/// Applies every branch injection on fanin `pin` to the value read
/// through that pin.
template <class W>
[[nodiscard]] inline WideV3<W> apply_pin(
    WideV3<W> v, int pin, std::span<const Injection<W>> injs) noexcept {
  for (const Injection<W>& inj : injs) {
    if (inj.pin == pin) v = w_inject(v, inj.mask, inj.stuck_one);
  }
  return v;
}

/// Injections grouped by the node they attach to.  Cleared and refilled
/// once per fault group; clear() touches only previously used nodes so a
/// pass over a large circuit stays O(active faults).
template <class W>
class InjectionMap {
 public:
  explicit InjectionMap(std::size_t num_nodes)
      : per_node_(num_nodes), has_(num_nodes, 0) {}

  /// Registers an injection on `node` (stem if pin == kStemPin, else the
  /// branch feeding fanin `pin`).
  void add(netlist::NodeId node, int pin, bool stuck_one, W mask) {
    if (!has_[node]) {
      touched_.push_back(node);
      has_[node] = 1;
    }
    per_node_[node].push_back(Injection<W>{pin, stuck_one, mask});
  }

  /// Removes all injections.
  void clear() {
    for (const netlist::NodeId n : touched_) {
      per_node_[n].clear();
      has_[n] = 0;
    }
    touched_.clear();
  }

  /// True if `node` carries any injection (one flat byte load — this is
  /// on the simulator's innermost path).
  [[nodiscard]] bool any(netlist::NodeId node) const {
    return has_[node] != 0;
  }

  /// Injections attached to `node`.
  [[nodiscard]] std::span<const Injection<W>> at(netlist::NodeId node) const {
    return per_node_[node];
  }

  /// True if no injections are registered at all.
  [[nodiscard]] bool empty() const noexcept { return touched_.empty(); }

 private:
  std::vector<std::vector<Injection<W>>> per_node_;
  std::vector<netlist::NodeId> touched_;
  std::vector<char> has_;
};

/// The one-lane (64-slot) injection map.
using PackedInjectionMap = InjectionMap<std::uint64_t>;

}  // namespace scanc::sim
