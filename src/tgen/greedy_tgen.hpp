// Simulation-based sequential test-sequence generation.
//
// Stand-in for STRATEGATE [10] / PROPTEST [12]: produces the long test
// sequence T0 that Phase 1 of the DAC-2001 procedure starts from.  Like
// those tools it is simulation-based: it extends the sequence segment by
// segment, evaluating a population of candidate segments by fault
// simulation and keeping the fittest.  Fitness is (new PO detections,
// latched fault effects) lexicographically — detections first, otherwise
// prefer moving fault effects into the flip-flops where a later segment
// can expose them.
//
// No scan is used: machines start in the all-X state and only primary
// outputs observe, exactly the setting in which the paper's T0 sequences
// were generated.
#pragma once

#include <cstdint>

#include "fault/fault_sim.hpp"
#include "netlist/circuit.hpp"
#include "sim/sequence.hpp"
#include "util/cancel.hpp"

namespace scanc::tgen {

/// Options for the greedy generator.
struct GreedyTgenOptions {
  std::uint64_t seed = 1;
  std::size_t candidates = 10;      ///< candidate segments per round
  std::size_t segment_min = 2;      ///< candidate segment length range
  std::size_t segment_max = 10;
  std::size_t max_length = 2000;    ///< hard cap on the sequence length
  std::size_t stall_rounds = 10;    ///< stop after this many rounds with
                                    ///< no new detection
  /// Probability (percent) that a candidate vector repeats the previous
  /// one per bit — creates the hold/walk patterns sequential faults need.
  std::uint32_t hold_percent = 35;
  /// Cooperative cancellation, polled once per greedy round.  A
  /// cancelled run returns the sequence built so far; callers that
  /// observe the raised token must discard it (the experiment runner
  /// does; see its phase checks).
  util::CancelToken cancel;
};

/// Result: the generated sequence and the classes it detects without
/// scan (all-X initial state, PO observation).
struct GreedyTgenResult {
  sim::Sequence sequence;
  fault::FaultSet detected;
};

/// Generates a test sequence for `circuit` targeting all collapsed fault
/// classes of `faults`.
[[nodiscard]] GreedyTgenResult generate_test_sequence(
    const netlist::Circuit& circuit, const fault::FaultList& faults,
    const GreedyTgenOptions& options = {});

/// The same generation on a caller-configured simulator (for instance a
/// lane width); the result does not depend on its configuration.
[[nodiscard]] GreedyTgenResult generate_test_sequence(
    fault::FaultSimulator& fsim, const GreedyTgenOptions& options = {});

}  // namespace scanc::tgen
