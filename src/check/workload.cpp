#include "check/workload.hpp"

#include <string>
#include <utility>

#include "gen/circuit_gen.hpp"

namespace scanc::check {

using netlist::Circuit;
using netlist::CircuitBuilder;
using netlist::GateType;
using sim::V3;
using sim::Vector3;
using util::Rng;

namespace {

/// A shift-register chain: one PI feeding ff0 -> ff1 -> ... -> ff{n-1},
/// each stage observed through an XOR tree onto the single PO.  Scan-path
/// faults on this shape exercise exactly the state-path interaction the
/// fuzzer hunts: every injection site lies on the state path and every
/// flip-flop can start X.
Circuit make_chain_circuit(std::size_t stages, bool invert_stages) {
  CircuitBuilder b("fuzz_chain");
  b.add_input("pi0");
  std::string prev = "pi0";
  for (std::size_t i = 0; i < stages; ++i) {
    const std::string ff = "ff" + std::to_string(i);
    const std::string ns = "ns" + std::to_string(i);
    if (invert_stages) {
      b.add_gate(GateType::Not, ns, {std::string_view(prev)});
    } else {
      b.add_gate(GateType::Buf, ns, {std::string_view(prev)});
    }
    b.add_gate(GateType::Dff, ff, {std::string_view(ns)});
    prev = ff;
  }
  // Observe every stage, not just the tail, so mid-chain faults have a
  // combinational path out as well as the scan path.
  std::string acc = "ff0";
  for (std::size_t i = 1; i < stages; ++i) {
    std::string x = "x";
    x += std::to_string(i);
    const std::string ff = "ff" + std::to_string(i);
    b.add_gate(GateType::Xor, x, {std::string_view(acc), std::string_view(ff)});
    acc = x;
  }
  b.add_gate(GateType::Buf, "po0", {std::string_view(acc)});
  b.mark_output("po0");
  return b.build();
}

/// One PI stem fanning out into a wide single-level cone feeding both a
/// bank of flip-flops and the POs — branch faults on the shared stem get
/// union cones covering the whole circuit.
Circuit make_fanout_circuit(std::size_t width) {
  CircuitBuilder b("fuzz_fanout");
  b.add_input("pi0");
  b.add_input("pi1");
  for (std::size_t i = 0; i < width; ++i) {
    std::string g = "g";
    g += std::to_string(i);
    const std::string ff = "ff" + std::to_string(i);
    const std::string ns = "ns" + std::to_string(i);
    if (i % 2 == 0) {
      b.add_gate(GateType::And, g, {"pi0", "pi1"});
    } else {
      b.add_gate(GateType::Xor, g, {"pi0", std::string_view(ff)});
    }
    b.add_gate(GateType::Or, ns, {std::string_view(g), "pi0"});
    b.add_gate(GateType::Dff, ff, {std::string_view(ns)});
  }
  std::string acc = "g0";
  for (std::size_t i = 1; i < width; ++i) {
    std::string x = "o";
    x += std::to_string(i);
    std::string g = "g";
    g += std::to_string(i);
    b.add_gate(GateType::Xor, x, {std::string_view(acc), std::string_view(g)});
    acc = x;
  }
  b.add_gate(GateType::Buf, "po0", {std::string_view(acc)});
  b.mark_output("po0");
  return b.build();
}

/// A glitch-free constant cone: Const0/Const1 sources through BUF/NOT/
/// AND/OR logic whose every line holds a constant, plus one live PI/FF
/// pair XOR-mixed in at the PO so the circuit still has observable
/// activity.  No constant-cone site ever transitions, so under the
/// transition-delay model every fault in the cone must stay inactive
/// (activation-aware skipping on one side, the scalar oracle's tracker
/// on the other — any disagreement is a frame-gating bug).
Circuit make_constant_cone_circuit(std::size_t depth, bool use_one) {
  CircuitBuilder b("fuzz_const");
  b.add_input("pi0");
  b.add_gate(use_one ? GateType::Const1 : GateType::Const0, "k", {});
  std::string prev = "k";
  for (std::size_t i = 0; i < depth; ++i) {
    std::string g = "c";
    g += std::to_string(i);
    switch (i % 4) {
      case 0:
        b.add_gate(GateType::Buf, g, {std::string_view(prev)});
        break;
      case 1:
        b.add_gate(GateType::Not, g, {std::string_view(prev)});
        break;
      case 2:
        b.add_gate(GateType::And, g, {std::string_view(prev), "k"});
        break;
      default:
        b.add_gate(GateType::Or, g, {std::string_view(prev), "k"});
        break;
    }
    prev = g;
  }
  b.add_gate(GateType::Dff, "ff0", {"pi0"});
  b.add_gate(GateType::Xor, "po0", {std::string_view(prev), "ff0"});
  b.mark_output("po0");
  return b.build();
}

/// A shift chain clocked through an XOR edge-detector: stage i+1 holds
/// stage i's previous value, so each bit entering at the PI shifts one
/// transition down the chain per frame — launch in frame t, capture at
/// the t/t+1 boundary, exactly the window the frame-gated kernels must
/// align on.  The PO XORs adjacent stages, observing the moving edge
/// itself.
Circuit make_edge_chain_circuit(std::size_t stages) {
  CircuitBuilder b("fuzz_edge");
  b.add_input("pi0");
  std::string prev = "pi0";
  for (std::size_t i = 0; i < stages; ++i) {
    const std::string ff = "ff" + std::to_string(i);
    b.add_gate(GateType::Dff, ff, {std::string_view(prev)});
    prev = ff;
  }
  std::string acc = "pi0";
  for (std::size_t i = 0; i < stages; ++i) {
    std::string x = "e";
    x += std::to_string(i);
    const std::string ff = "ff" + std::to_string(i);
    b.add_gate(GateType::Xor, x, {std::string_view(acc), std::string_view(ff)});
    acc = x;
  }
  b.add_gate(GateType::Buf, "po0", {std::string_view(acc)});
  b.mark_output("po0");
  return b.build();
}

Circuit make_circuit(Rng& rng) {
  const std::uint64_t shape = rng.below(12);
  if (shape == 0) {
    return make_chain_circuit(1 + rng.below(5), rng.coin());
  }
  if (shape == 1) {
    return make_fanout_circuit(2 + rng.below(6));
  }
  if (shape == 2) {
    return make_constant_cone_circuit(1 + rng.below(6), rng.coin());
  }
  if (shape == 3) {
    return make_edge_chain_circuit(1 + rng.below(5));
  }
  gen::GenParams p;
  p.name = "fuzz";
  p.num_inputs = 1 + rng.below(6);
  p.num_outputs = 1 + rng.below(4);
  // Bias toward tiny state (0, 1, 2 flip-flops) where the degenerate
  // paths live, with a tail of larger machines.
  const std::uint64_t ff_shape = rng.below(8);
  if (ff_shape < 2) {
    p.num_flip_flops = ff_shape;  // 0 or 1
  } else {
    p.num_flip_flops = 2 + rng.below(9);
  }
  p.num_gates = 8 + rng.below(70);
  p.seed = rng.next();
  p.pi_mux_fraction = rng.unit();
  return gen::generate_circuit(p);
}

util::Bitset make_scan_mask(std::size_t num_ffs, Rng& rng) {
  util::Bitset mask(num_ffs, true);
  if (num_ffs == 0 || rng.chance(3, 5)) return mask;  // full scan
  // Partial scan: random subset, including the empty chain.
  const std::uint64_t density = rng.below(257);
  for (std::size_t i = 0; i < num_ffs; ++i) {
    if (rng.below(256) >= density) mask.reset(i);
  }
  return mask;
}

sim::Sequence make_sequence(std::size_t width, Rng& rng) {
  static constexpr std::size_t kLengths[] = {0, 1, 1, 2, 3, 4, 6, 8};
  const std::size_t len = kLengths[rng.below(std::size(kLengths))];
  sim::Sequence seq;
  seq.frames.reserve(len);
  const std::uint32_t x_density =
      rng.chance(1, 4) ? static_cast<std::uint32_t>(rng.below(257)) : 0;
  for (std::size_t t = 0; t < len; ++t) {
    seq.frames.push_back(random_scan_in(width, x_density, rng));
  }
  return seq;
}

}  // namespace

Vector3 random_scan_in(std::size_t width, std::uint32_t x_density,
                       Rng& rng) {
  Vector3 v(width, V3::X);
  for (auto& x : v) {
    if (rng.below(256) >= x_density) x = sim::v3_from_bool(rng.coin());
  }
  return v;
}

fault::FaultSet Workload::target_set() const {
  fault::FaultSet s(faults.num_classes());
  if (targets.empty()) {
    s.fill();
  } else {
    for (const fault::FaultClassId id : targets) s.set(id);
  }
  return s;
}

Workload make_workload(std::uint64_t case_seed,
                       const fault::FaultModel& model) {
  Rng rng(case_seed);
  Circuit circuit = make_circuit(rng);
  fault::FaultList faults = fault::FaultList::build(circuit, model);
  util::Bitset scan_mask = make_scan_mask(circuit.num_flip_flops(), rng);

  Workload w{std::move(circuit), std::move(faults), std::move(scan_mask),
             {}, {}, {}, case_seed};

  // Target subset: usually every class, sometimes a random subset or a
  // single class (small groups and partial wide chunks).
  const std::size_t classes = w.faults.num_classes();
  const std::uint64_t subset = rng.below(4);
  if (subset == 1 && classes > 0) {
    w.targets.push_back(
        static_cast<fault::FaultClassId>(rng.below(classes)));
  } else if (subset == 2 && classes > 0) {
    for (std::size_t id = 0; id < classes; ++id) {
      if (rng.chance(1, 3)) {
        w.targets.push_back(static_cast<fault::FaultClassId>(id));
      }
    }
  }

  // Mostly 1-3 tests; one case in four gets a larger set so the
  // pattern-parallel batch checks span several lane chunks (a 512-bit
  // pass packs 8 tests) and end on a ragged final chunk.
  const std::size_t num_tests =
      rng.chance(1, 4) ? 1 + rng.below(12) : 1 + rng.below(3);
  for (std::size_t i = 0; i < num_tests; ++i) {
    tcomp::ScanTest t;
    // Scan-in X density: mostly fully specified, sometimes sparse X,
    // sometimes all-X.
    const std::uint64_t kind = rng.below(8);
    const std::uint32_t density =
        kind == 0 ? 256u
                  : (kind <= 2 ? static_cast<std::uint32_t>(rng.below(129))
                               : 0u);
    t.scan_in = random_scan_in(w.circuit.num_flip_flops(), density, rng);
    t.seq = make_sequence(w.circuit.num_inputs(), rng);
    w.tests.push_back(std::move(t));
  }
  w.no_scan_seq = make_sequence(w.circuit.num_inputs(), rng);
  return w;
}

}  // namespace scanc::check
