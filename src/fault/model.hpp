// Pluggable fault-model layer: site enumeration, collapsing rules, and
// per-frame activation semantics, abstracted behind fault::FaultModel.
//
// Two concrete models ship:
//
//   StuckAt     the classical single stuck-at model (stems + fanout
//               branches, structural equivalence collapsing through
//               BUF/NOT/AND/NAND/OR/NOR).  A stuck-at fault is active in
//               every frame, so kernels inject it unconditionally.
//
//   Transition  gross-delay transition faults (slow-to-rise / slow-to-
//               fall) at stems.  A transition fault is *frame-gated*:
//               its effect exists only in a frame whose fault-free site
//               value launches the delayed transition (previous frame at
//               the stale value, current frame at the opposite value,
//               both binary).  In an active frame the site behaves as
//               stuck at the stale value for exactly that frame; the
//               effect does not persist across frames.  docs/
//               fault_models.md derives the semantics and the
//               activation-aware frame-skipping rule the kernels use.
//
// The model owns what varies between fault types; the packed 64-slot
// fault-parallel machinery, group partitioning, trace cache, and the six
// FaultSimulator queries are model-agnostic and consume the model through
// FaultList::model().
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/circuit.hpp"

namespace scanc::fault {

/// The concrete fault models the library ships.
enum class FaultModelKind : std::uint8_t {
  StuckAt,     ///< single stuck-at (the default)
  Transition,  ///< gross-delay transition faults (STR/STF)
};

/// Effective fanout of a stem: gate connections plus the implicit
/// primary-output tap.  Branch faults (and per-model collapsing through
/// single-fanout lines) key off this count; it is the single shared
/// definition used by every model and by the check/ oracle.
[[nodiscard]] std::size_t effective_fanout(const netlist::Circuit& c,
                                           netlist::NodeId stem) noexcept;

/// One fault model: the site universe, its collapsing rules, and how the
/// simulation kernels must gate injection per frame.  Implementations are
/// stateless singletons; FaultList and the kernels hold them by
/// reference.
class FaultModel {
 public:
  virtual ~FaultModel() = default;

  [[nodiscard]] virtual FaultModelKind kind() const noexcept = 0;

  /// Stable command-line / journal name: "stuck" or "transition".
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Fault-name suffix for reporting: "/SA0", "/SA1", "/STR", "/STF".
  [[nodiscard]] virtual const char* fault_suffix(
      const Fault& f) const noexcept = 0;

  /// True when a fault of this model is only active in frames whose
  /// fault-free site value satisfies an activation predicate (transition
  /// launch).  Frame-gated models require the fault-free node trace as
  /// activation oracle, and whole frames without a launch are skipped.
  [[nodiscard]] virtual bool frame_gated() const noexcept = 0;

  /// Enumerates the model's fault universe of `c` into `out`, in a
  /// stable order (equal circuits give equal lists).
  virtual void enumerate(const netlist::Circuit& c,
                         std::vector<Fault>& out) const = 0;

  /// Structural equivalence collapsing: calls `unite(a, b)` for every
  /// equivalent pair of fault indices (indices into the enumerate()
  /// order).  The caller owns the union-find and class numbering.
  virtual void collapse(
      const netlist::Circuit& c, std::span<const Fault> faults,
      const std::function<void(std::uint32_t, std::uint32_t)>& unite)
      const = 0;

  /// Process-lifetime singletons.
  [[nodiscard]] static const FaultModel& stuck_at() noexcept;
  [[nodiscard]] static const FaultModel& transition() noexcept;
  [[nodiscard]] static const FaultModel& get(FaultModelKind kind) noexcept;
};

}  // namespace scanc::fault
