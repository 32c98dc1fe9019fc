// Fault-injection bookkeeping for the bit-parallel simulator.
//
// An injection forces the value of one circuit *line* to a stuck value in
// the simulation slots selected by a mask of word type W (one 64-bit slot
// mask per lane, sim/wide.hpp).  Lines are either stems (a node's output,
// pin == kStemPin) or branches (the connection feeding fanin `pin` of a
// node).  The fault simulator assigns one slot per fault and registers
// the corresponding injections here before each pass.
//
// Each fill (clear(), add()..., compile()) compiles into one patch per
// injected line, sorted the way SeqSim applies them: combinational gates
// by CSR rank (so a level's patches run right after its op loops), then
// flip-flops, primary inputs and constants by NodeId; a node's stem
// before its branches by pin.  The injections on one line occupy
// disjoint slots, so its stuck-at-0 and stuck-at-1 masks merge exactly
// into one LineMasks pair, whatever the add() order.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"
#include "sim/wide.hpp"

namespace scanc::sim {

/// Pin value denoting a stem (node output) injection.
inline constexpr int kStemPin = -1;

/// The merged injections of one line: slots stuck at 0 and at 1.
template <class W>
struct LineMasks {
  W m0{};
  W m1{};
};

/// Forces m.m0's slots to 0 and m.m1's to 1, leaving the others alone.
template <class W>
[[nodiscard]] inline WideV3<W> w_inject(WideV3<W> v,
                                        const LineMasks<W>& m) noexcept {
  return {(v.is0 | m.m0) & ~m.m1, (v.is1 | m.m1) & ~m.m0};
}

/// The merged injections on one line: the stem of `node` (pin ==
/// kStemPin) or the branch into its fanin `pin`.  `pos` is the node's
/// CSR rank for a gate, else its NodeId.
template <class W>
struct LinePatch {
  netlist::NodeId node = 0;
  std::uint32_t pos = 0;
  std::int32_t pin = kStemPin;
  LineMasks<W> masks;
};

/// The node kinds patches are grouped by, in sort order.
enum class PatchKind : std::uint8_t { Gate, FlipFlop, Input, Const };

/// Injections compiled into patches; storage is proportional to the
/// injections of the current fill.
template <class W>
class InjectionMap {
 public:
  explicit InjectionMap(const netlist::Circuit& circuit)
      : csr_(&circuit.csr()) {}

  /// Registers an injection on `node` (stem if pin == kStemPin, else the
  /// branch feeding fanin `pin`).  The injections on one line must
  /// occupy disjoint slots.  Takes effect at the next compile().
  void add(netlist::NodeId node, int pin, bool stuck_one, W mask) {
    const std::uint64_t key = key_of(node, pin);
#ifndef NDEBUG
    for (const Line& l : lines_) {
      assert(l.key != key || !any(raw_[l.raw].mask & mask));
    }
#endif
    lines_.push_back(Line{key, static_cast<std::uint32_t>(raw_.size())});
    raw_.push_back(Raw{node, stuck_one, mask});
    compiled_ = false;
  }

  /// Removes all injections (leaving a compiled, empty map).
  void clear() {
    raw_.clear();
    lines_.clear();
    compile();
  }

  /// Turns the injections added since the last clear() into patches.
  void compile() {
    // Insertion sort: the fault simulator packs its groups in CSR rank
    // order, so a fill arrives almost sorted (the sources, which sort
    // last, are the usual exceptions) and this stays close to linear.
    for (std::size_t i = 1; i < lines_.size(); ++i) {
      const Line x = lines_[i];
      std::size_t j = i;
      for (; j > 0 && lines_[j - 1].key > x.key; --j) {
        lines_[j] = lines_[j - 1];
      }
      lines_[j] = x;
    }
    patches_.clear();
    ends_.fill(0);
    gates_ = 0;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const std::uint64_t key = lines_[i].key;
      const std::uint64_t prev = i == 0 ? ~0ULL : lines_[i - 1].key;
      const Raw& r = raw_[lines_[i].raw];
      if (key != prev) {
        const auto pos = static_cast<std::uint32_t>(key >> kPinShift & kMask);
        const auto pin = static_cast<std::int32_t>(key & kMask) - 1;
        patches_.push_back(LinePatch<W>{r.node, pos, pin, {}});
        ++ends_[key >> kKindShift];
        const bool new_node = key >> kPinShift != prev >> kPinShift;
        gates_ += new_node && key >> kKindShift == 0;
      }
      LineMasks<W>& m = patches_.back().masks;
      W& slots = r.stuck_one ? m.m1 : m.m0;
      slots = slots | r.mask;
    }
    for (std::size_t k = 1; k < ends_.size(); ++k) ends_[k] += ends_[k - 1];
    compiled_ = true;
  }

  /// The patches of one node kind, in sort order.
  [[nodiscard]] std::span<const LinePatch<W>> patches(PatchKind kind) const {
    assert(compiled_);
    const auto k = static_cast<std::size_t>(kind);
    return {patches_.data() + (k == 0 ? 0 : ends_[k - 1]),
            patches_.data() + ends_[k]};
  }
  /// Number of gates the compiled patches touch.
  [[nodiscard]] std::size_t patched_gates() const noexcept { return gates_; }

 private:
  // key = kind | pos | pin + 1, so sorting by key groups each node's
  // lines (stem first, then pins ascending) in patch order.
  static constexpr unsigned kPinShift = 31;
  static constexpr unsigned kKindShift = 62;
  static constexpr std::uint64_t kMask = (1ULL << kPinShift) - 1;

  struct Raw {
    netlist::NodeId node;
    bool stuck_one;
    W mask;
  };
  /// An injection's sort key and its index in raw_ (the sort moves
  /// these, not the masks).
  struct Line {
    std::uint64_t key;
    std::uint32_t raw;
  };

  [[nodiscard]] std::uint64_t key_of(netlist::NodeId node, int pin) const {
    using netlist::GateType;
    const GateType t = csr_->types[node];
    const PatchKind kind = t == GateType::Dff      ? PatchKind::FlipFlop
                           : t == GateType::Input  ? PatchKind::Input
                           : netlist::is_source(t) ? PatchKind::Const
                                                   : PatchKind::Gate;
    const std::uint64_t pos =
        kind == PatchKind::Gate ? csr_->rank[node] : node;
    return static_cast<std::uint64_t>(kind) << kKindShift |
           pos << kPinShift | static_cast<std::uint64_t>(pin + 1);
  }

  const netlist::CsrSchedule* csr_;
  std::vector<Raw> raw_;
  std::vector<Line> lines_;
  std::vector<LinePatch<W>> patches_;
  std::array<std::uint32_t, 4> ends_{};  // patches_ end per PatchKind
  std::size_t gates_ = 0;
  bool compiled_ = true;
};

/// The one-lane (64-slot) injection map.
using PackedInjectionMap = InjectionMap<std::uint64_t>;

}  // namespace scanc::sim
