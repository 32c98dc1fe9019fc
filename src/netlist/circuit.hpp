// Gate-level sequential circuit graph (ISCAS .bench semantics).
//
// A Circuit is an immutable, validated netlist.  Construct one through
// CircuitBuilder, which checks structural invariants (defined fanins,
// acyclic combinational logic, correct arities) and precomputes the
// derived data every downstream engine needs: fanout lists, a topological
// order of the combinational gates, and levels.
//
// Sequential semantics: each D flip-flop node holds the circuit state.
// Within a clock cycle the DFF node's value is a *source* (the current
// state); the DFF's single fanin is the next-state function, sampled at
// the end of the cycle.  Full-scan access means all DFF values can be set
// (scan-in) and observed (scan-out) directly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/csr.hpp"
#include "netlist/gate.hpp"

namespace scanc::netlist {

/// Index of a node (signal) within a Circuit.  Dense, 0-based.
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// One node: a named signal plus the gate that drives it.
struct Node {
  std::string name;             ///< signal name from the netlist
  GateType type = GateType::Buf;
  std::vector<NodeId> fanins;   ///< driving signals, in declaration order
  std::vector<NodeId> fanouts;  ///< consuming nodes (computed by build())
  std::uint32_t level = 0;      ///< 0 for sources; 1+max(fanin level) else
};

/// Immutable, validated gate-level circuit.
class Circuit {
 public:
  /// Circuit name (e.g. "s27").
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Number of nodes (signals).
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return nodes_.size();
  }

  /// Node accessor.  `id` must be < num_nodes().
  [[nodiscard]] const Node& node(NodeId id) const { return nodes_[id]; }

  /// All nodes, indexed by NodeId.
  [[nodiscard]] std::span<const Node> nodes() const noexcept {
    return nodes_;
  }

  /// Primary inputs, in declaration order.
  [[nodiscard]] std::span<const NodeId> primary_inputs() const noexcept {
    return primary_inputs_;
  }

  /// Primary outputs, in declaration order.
  [[nodiscard]] std::span<const NodeId> primary_outputs() const noexcept {
    return primary_outputs_;
  }

  /// D flip-flops (state variables), in ascending NodeId order.  For
  /// full-scan circuits this is also the scan-chain order.
  [[nodiscard]] std::span<const NodeId> flip_flops() const noexcept {
    return flip_flops_;
  }

  /// Number of primary inputs / outputs / state variables.
  [[nodiscard]] std::size_t num_inputs() const noexcept {
    return primary_inputs_.size();
  }
  [[nodiscard]] std::size_t num_outputs() const noexcept {
    return primary_outputs_.size();
  }
  [[nodiscard]] std::size_t num_flip_flops() const noexcept {
    return flip_flops_.size();
  }

  /// Combinational gates (everything that is not a source), in a valid
  /// topological evaluation order.
  [[nodiscard]] std::span<const NodeId> topo_order() const noexcept {
    return topo_order_;
  }

  /// Number of combinational gates.
  [[nodiscard]] std::size_t num_gates() const noexcept {
    return topo_order_.size();
  }

  /// Maximum combinational level (depth).  0 for a circuit with no gates.
  [[nodiscard]] std::uint32_t depth() const noexcept { return depth_; }

  /// Flat CSR connectivity + levelized evaluation order (precomputed by
  /// build()).  The simulation kernels run off this instead of the
  /// per-Node vectors.
  [[nodiscard]] const CsrSchedule& csr() const noexcept { return csr_; }

  /// Looks up a node by name; returns kNoNode if absent.
  [[nodiscard]] NodeId find(std::string_view name) const;

  /// True if `id` is designated as a primary output.
  [[nodiscard]] bool is_primary_output(NodeId id) const {
    return is_output_[id];
  }

 private:
  friend class CircuitBuilder;

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> primary_inputs_;
  std::vector<NodeId> primary_outputs_;
  std::vector<NodeId> flip_flops_;
  std::vector<NodeId> topo_order_;
  std::vector<char> is_output_;
  std::unordered_map<std::string, NodeId> by_name_;
  std::uint32_t depth_ = 0;
  CsrSchedule csr_;
};

/// Incremental builder for Circuit.  Names may be referenced before they
/// are defined (forward references), as .bench files require; build()
/// verifies every referenced name was eventually defined.
///
/// Throws std::invalid_argument on structural errors (duplicate
/// definition, undefined fanin, wrong arity, combinational cycle).
class CircuitBuilder {
 public:
  explicit CircuitBuilder(std::string circuit_name = "circuit");

  /// Declares a primary input.  Returns its NodeId.
  NodeId add_input(std::string_view name);

  /// Defines a gate driving signal `name` from the given fanin names.
  /// `type` must not be Input (use add_input).  Returns the NodeId.
  NodeId add_gate(GateType type, std::string_view name,
                  std::span<const std::string_view> fanins);

  /// Convenience overload taking an initializer list of fanin names.
  NodeId add_gate(GateType type, std::string_view name,
                  std::initializer_list<std::string_view> fanins);

  /// Defines a gate by fanin NodeIds (for programmatic construction).
  NodeId add_gate_ids(GateType type, std::string_view name,
                      std::span<const NodeId> fanins);

  /// Marks a signal (defined before or after this call) as primary output.
  void mark_output(std::string_view name);

  /// Number of nodes added so far.
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  /// Validates and finalizes.  The builder is left in a moved-from state.
  [[nodiscard]] Circuit build();

 private:
  NodeId intern(std::string_view name);
  NodeId define(GateType type, std::string_view name);

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<char> defined_;
  std::vector<std::string> output_names_;
  std::unordered_map<std::string, NodeId> by_name_;
};

/// Summary statistics for reporting.
struct CircuitStats {
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  std::size_t flip_flops = 0;
  std::size_t gates = 0;  ///< combinational gates
  std::uint32_t depth = 0;
};

/// Computes summary statistics.
[[nodiscard]] CircuitStats stats(const Circuit& c);

}  // namespace scanc::netlist
