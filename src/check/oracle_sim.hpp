// Slow, obviously-correct reference interpreter for single-fault
// sequential simulation — the oracle of the differential fuzzer.
//
// Deliberately independent of the production code paths: it walks
// Node::fanins in Circuit::topo_order() (not the CSR schedule), keeps
// one scalar V3 per node (not 64 packed slots), evaluates gates with a
// local accumulate-loop evaluator (not sim/packed.hpp), and simulates
// the fault-free and the faulty machine as two separate passes.  The
// only shared vocabulary is the V3 value type and the fault model:
//
//   - a stem fault (pin == kStemPin) forces the value every reader of
//     the node sees, including primary-output observation, but not the
//     value captured by a flip-flop (Q-side fault, PPO convention);
//   - a branch fault (pin >= 0) forces the value one specific fanin
//     pin reads; on a flip-flop's D pin it corrupts the capture itself
//     and is therefore scan-observable;
//   - detection is conservative: an observation point detects the
//     fault only when the fault-free and faulty values are both binary
//     and differ.
//
// Observation points are the primary outputs after every time unit
// and, for scan tests, the captured state (scanned flip-flops only)
// after each latch — oracle_run records, for every time unit u, whether
// scanning out after u would detect the fault, which is exactly the
// contract of FaultSimulator::detection_times.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "fault/model.hpp"
#include "netlist/circuit.hpp"
#include "sim/sequence.hpp"
#include "util/bitset.hpp"

namespace scanc::check {

/// Everything the oracle can say about one (fault, test) pair.
struct OracleResult {
  /// The complete test detects the fault (POs anywhere, or — for scan
  /// tests with observe_scan_out — the final scan-out).
  bool detected = false;
  /// Earliest time unit with a PO detection; -1 if never.
  std::int64_t first_po = -1;
  /// state_diff[u] != 0 iff scanning out after time unit u detects the
  /// fault.  Size = seq.length(); empty for no-scan runs.
  std::vector<std::uint8_t> state_diff;
};

/// Simulates `seq` for fault `f`.  With `scan_in` non-null the run is a
/// scan test: the state is loaded from `scan_in` (positions not in
/// `scan_mask` forced to X) and scan-out records are kept; with
/// `observe_scan_out` the final scan-out counts toward `detected`.
/// With `scan_in` null the run starts from the all-X state and only POs
/// observe (detect_no_scan semantics).
[[nodiscard]] OracleResult oracle_run(const netlist::Circuit& c,
                                      const util::Bitset& scan_mask,
                                      const fault::Fault& f,
                                      const sim::Vector3* scan_in,
                                      const sim::Sequence& seq,
                                      bool observe_scan_out);

/// Model-dispatching form: stuck-at delegates to the permanent-fault
/// interpreter above; a frame-gated model (transition-delay) runs the
/// launch/capture interpreter — the faulty machine exists only in frames
/// whose fault-free stem value transitions away from the stale value
/// (previous frame stale, current frame the opposite, both binary), is
/// rebuilt from the fault-free state entering each such frame with the
/// stem stuck at the stale value, and is observed at the POs of that
/// frame and (final frame only) the scan-out it captures.
[[nodiscard]] OracleResult oracle_run(const netlist::Circuit& c,
                                      const util::Bitset& scan_mask,
                                      const fault::FaultModel& model,
                                      const fault::Fault& f,
                                      const sim::Vector3* scan_in,
                                      const sim::Sequence& seq,
                                      bool observe_scan_out);

}  // namespace scanc::check
