// Substrate micro-benchmarks (google-benchmark): throughput of the
// engines everything else is built on.  Not a paper table — use these to
// track performance regressions of the simulator/ATPG kernels.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "atpg/comb_tset.hpp"
#include "netlist/circuit.hpp"
#include "atpg/podem.hpp"
#include "atpg/sat_backend.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "fault/model.hpp"
#include "gen/circuit_gen.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/bench_writer.hpp"
#include "sim/seq_sim.hpp"
#include "sim/simd.hpp"
#include "tgen/random_seq.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace {

using namespace scanc;

netlist::Circuit mid_circuit() {
  gen::GenParams p;
  p.name = "bench";
  p.seed = 12345;
  p.num_inputs = 16;
  p.num_outputs = 16;
  p.num_flip_flops = 64;
  p.num_gates = 1000;
  return gen::generate_circuit(p);
}

void BM_FaultFreeSimulation(benchmark::State& state) {
  const netlist::Circuit c = mid_circuit();
  const sim::Sequence seq =
      tgen::random_test_sequence(c, static_cast<std::size_t>(state.range(0)),
                                 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_fault_free(c, nullptr, seq));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["gates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * state.range(0)) *
          static_cast<double>(c.num_gates()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FaultFreeSimulation)->Arg(64)->Arg(256);

void BM_ParallelFaultSimulation(benchmark::State& state) {
  const netlist::Circuit c = mid_circuit();
  const fault::FaultList fl = fault::FaultList::build(c);
  fault::FaultSimulator fsim(c, fl);
  const sim::Sequence seq = tgen::random_test_sequence(c, 64, 11);
  util::Rng rng(3);
  const sim::Vector3 si = sim::random_vector(c.num_flip_flops(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsim.detect_scan_test(si, seq));
  }
  // Faults simulated per second (all classes, 64-frame test).
  state.counters["faults/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(fl.num_classes()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelFaultSimulation);

// Thread-count sweep over the two hottest queries (the BENCH_*.json
// speedup tracker): same work as the serial benchmarks above, fanned
// across the group-execution layer.  Real time is the honest metric for
// a multi-threaded region.
void BM_DetectScanTestThreads(benchmark::State& state) {
  const netlist::Circuit c = mid_circuit();
  const fault::FaultList fl = fault::FaultList::build(c);
  fault::FaultSimulator fsim(c, fl);
  fsim.set_num_threads(static_cast<std::size_t>(state.range(0)));
  const sim::Sequence seq = tgen::random_test_sequence(c, 64, 11);
  util::Rng rng(3);
  const sim::Vector3 si = sim::random_vector(c.num_flip_flops(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsim.detect_scan_test(si, seq));
  }
  state.counters["faults/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(fl.num_classes()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DetectScanTestThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_DetectionTimesThreads(benchmark::State& state) {
  const netlist::Circuit c = mid_circuit();
  const fault::FaultList fl = fault::FaultList::build(c);
  fault::FaultSimulator fsim(c, fl);
  fsim.set_num_threads(static_cast<std::size_t>(state.range(0)));
  const sim::Sequence seq = tgen::random_test_sequence(c, 64, 11);
  util::Rng rng(3);
  const sim::Vector3 si = sim::random_vector(c.num_flip_flops(), rng);
  const fault::FaultSet all = fsim.all_faults();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsim.detection_times(si, seq, all));
  }
  state.counters["faults/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(fl.num_classes()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DetectionTimesThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_DetectionTimesRecording(benchmark::State& state) {
  const netlist::Circuit c = mid_circuit();
  const fault::FaultList fl = fault::FaultList::build(c);
  fault::FaultSimulator fsim(c, fl);
  const sim::Sequence seq = tgen::random_test_sequence(c, 64, 11);
  util::Rng rng(3);
  const sim::Vector3 si = sim::random_vector(c.num_flip_flops(), rng);
  const fault::FaultSet all = fsim.all_faults();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsim.detection_times(si, seq, all));
  }
}
BENCHMARK(BM_DetectionTimesRecording);

// Simulation kernels across circuit sizes (the BENCH_kernel.json
// artifact; see bench/check_kernel_baseline.py).
//
// The circuit is a row of independent 500-gate blocks sharing only the
// primary-input bus — the locality profile of a large scan design.  The
// kernel benchmarks below run the same query on it and differ only in
// lane width (64-bit vs wide), fault model, or test packing (per-test
// vs PPSFP batch).
netlist::Circuit tiled_circuit(std::size_t tiles) {
  constexpr std::size_t kInputs = 16;
  netlist::CircuitBuilder b("tiled");
  std::vector<std::string> pis;
  for (std::size_t i = 0; i < kInputs; ++i) {
    pis.push_back("pi" + std::to_string(i));
    b.add_input(pis.back());
  }
  for (std::size_t k = 0; k < tiles; ++k) {
    gen::GenParams p;
    p.name = "tile";
    p.seed = 1000 + k;
    p.num_inputs = kInputs;
    p.num_outputs = 4;
    p.num_flip_flops = 24;
    p.num_gates = 500;
    const netlist::Circuit sub = gen::generate_circuit(p);
    const std::string prefix = "t" + std::to_string(k) + "_";
    const auto local = [&](netlist::NodeId id) -> std::string {
      const netlist::Node& n = sub.node(id);
      if (n.type == netlist::GateType::Input) {
        const std::span<const netlist::NodeId> sp = sub.primary_inputs();
        const std::size_t j = static_cast<std::size_t>(
            std::find(sp.begin(), sp.end(), id) - sp.begin());
        return pis[j];
      }
      return prefix + n.name;
    };
    for (netlist::NodeId id = 0; id < sub.num_nodes(); ++id) {
      const netlist::Node& n = sub.node(id);
      if (n.type == netlist::GateType::Input) continue;
      std::vector<std::string> fanins;
      std::vector<std::string_view> views;
      for (const netlist::NodeId f : n.fanins) fanins.push_back(local(f));
      for (const std::string& s : fanins) views.push_back(s);
      b.add_gate(n.type, prefix + n.name, views);
    }
    for (const netlist::NodeId po : sub.primary_outputs()) {
      b.mark_output(prefix + sub.node(po).name);
    }
  }
  return b.build();
}

void run_kernel_bench(benchmark::State& state,
                      const fault::FaultModel& model =
                          fault::FaultModel::stuck_at(),
                      sim::LaneWidth lanes = sim::LaneWidth::W64) {
  const netlist::Circuit c = tiled_circuit(
      static_cast<std::size_t>(state.range(0)));
  const fault::FaultList fl = fault::FaultList::build(c, model);
  fault::FaultSimulator fsim(c, fl);
  fsim.set_lane_width(lanes);
  const sim::Sequence seq = tgen::random_test_sequence(c, 32, 11);
  util::Rng rng(3);
  const sim::Vector3 si = sim::random_vector(c.num_flip_flops(), rng);
  // One untimed warm-up query outside the counted window: it builds the
  // fault-free trace, so cache_hit_ratio counts reuse over the timed
  // queries only and does not depend on how many iterations the library
  // chooses to run.
  benchmark::DoNotOptimize(fsim.detect_scan_test(si, seq));
  const obs::CounterSnapshot before = obs::snapshot_counters();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsim.detect_scan_test(si, seq));
  }
  const obs::CounterSnapshot delta =
      obs::counter_delta(obs::snapshot_counters(), before);
  const auto at = [&delta](obs::Counter x) {
    return static_cast<double>(delta[static_cast<std::size_t>(x)]);
  };
  // Group-frames per second: every group steps through the whole test.
  const double group_frames =
      static_cast<double>(fault::num_groups(fl.num_classes())) *
      static_cast<double>(seq.length());
  state.counters["group_frames/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * group_frames,
      benchmark::Counter::kIsRate);
  state.counters["gates"] = benchmark::Counter(
      static_cast<double>(c.num_gates()));
  // Trace reuse (checked against BENCH_kernel_baseline.json's
  // "transition" section for BM_KernelTDF).
  const double reuse = at(obs::Counter::TraceCacheHits) +
                       at(obs::Counter::TraceCacheExtensions) +
                       at(obs::Counter::TraceCachePartialReuses);
  const double lookups = reuse + at(obs::Counter::TraceCacheMisses);
  state.counters["cache_hit_ratio"] = benchmark::Counter(
      lookups > 0.0 ? reuse / lookups : 0.0);
  if (model.frame_gated()) {
    // Activation-aware skipping: the fraction of group-frames the TDF
    // kernel never simulated because no fault in the group launched.
    const double tdf_frames = at(obs::Counter::FramesSimulated) +
                              at(obs::Counter::TdfFramesSkipped);
    state.counters["tdf_skip_ratio"] = benchmark::Counter(
        tdf_frames > 0.0 ? at(obs::Counter::TdfFramesSkipped) / tdf_frames
                         : 0.0);
  }
}

// The one-lane (64-bit) kernel: the baseline the wide ratio is taken
// against.
void BM_KernelFull(benchmark::State& state) { run_kernel_bench(state); }
BENCHMARK(BM_KernelFull)->Arg(2)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// The frame-gated transition kernel on the same tiled circuit.  Tracked
// by the baseline's "transition" section: the tdf_skip_ratio counter
// pins the activation-aware frame skipping that makes TDF passes cheap.
void BM_KernelTDF(benchmark::State& state) {
  run_kernel_bench(state, fault::FaultModel::transition());
}
BENCHMARK(BM_KernelTDF)->Arg(2)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Wide fault-parallel engine on the same tiled circuit and query as
// BM_KernelFull (which pins the scalar 64-bit kernels): the ratio
// full/wide is the SIMD widening gain, gated by the baseline's "simd"
// section.
void BM_KernelWide(benchmark::State& state) {
  run_kernel_bench(state, fault::FaultModel::stuck_at(),
                   sim::LaneWidth::Auto);
  const sim::SimdConfig simd = sim::resolve_simd(sim::LaneWidth::Auto);
  state.counters["lane_bits"] =
      benchmark::Counter(static_cast<double>(simd.bits));
}
BENCHMARK(BM_KernelWide)->Arg(2)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Pattern-parallel (PPSFP) batch scoring vs per-test scoring: the same
// 16 scan tests on the tiled circuit, scored one detect_scan_test at a
// time on 64-bit lanes (BM_KernelPerTest) and in one
// detect_batch call that packs lanes() tests per wide pass
// (BM_KernelPPSFP).  Their ratio is the PPSFP gain the baseline gates.
struct PpsfpMaterial {
  netlist::Circuit circuit;
  fault::FaultList faults;
  std::vector<sim::Vector3> scan_ins;
  std::vector<sim::Sequence> seqs;
  std::vector<fault::FaultSimulator::BatchTest> batch;
};

PpsfpMaterial ppsfp_material(std::size_t tiles) {
  constexpr std::size_t kTests = 16;
  PpsfpMaterial m{tiled_circuit(tiles), {}, {}, {}, {}};
  m.faults = fault::FaultList::build(m.circuit);
  util::Rng rng(29);
  for (std::size_t i = 0; i < kTests; ++i) {
    m.scan_ins.push_back(
        sim::random_vector(m.circuit.num_flip_flops(), rng));
    m.seqs.push_back(
        tgen::random_test_sequence(m.circuit, 32, 500 + i));
  }
  m.batch.resize(kTests);
  for (std::size_t i = 0; i < kTests; ++i) {
    m.batch[i] = {&m.scan_ins[i], &m.seqs[i]};
  }
  return m;
}

void BM_KernelPerTest(benchmark::State& state) {
  const PpsfpMaterial m =
      ppsfp_material(static_cast<std::size_t>(state.range(0)));
  fault::FaultSimulator fsim(m.circuit, m.faults);
  fsim.set_lane_width(sim::LaneWidth::W64);
  for (auto _ : state) {
    for (std::size_t i = 0; i < m.batch.size(); ++i) {
      benchmark::DoNotOptimize(
          fsim.detect_scan_test(m.scan_ins[i], m.seqs[i]));
    }
  }
  state.counters["tests/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * m.batch.size()),
      benchmark::Counter::kIsRate);
}
// Arg(16) is deliberately absent: the per-test leg costs ~35 s there
// and adds nothing the 2- and 8-tile ratios don't already gate.
BENCHMARK(BM_KernelPerTest)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_KernelPPSFP(benchmark::State& state) {
  const PpsfpMaterial m =
      ppsfp_material(static_cast<std::size_t>(state.range(0)));
  fault::FaultSimulator fsim(m.circuit, m.faults);
  fsim.set_lane_width(sim::LaneWidth::Auto);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsim.detect_batch(m.batch));
  }
  const sim::SimdConfig simd = fsim.simd_config();
  state.counters["tests/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * m.batch.size()),
      benchmark::Counter::kIsRate);
  state.counters["ppsfp_w"] =
      benchmark::Counter(static_cast<double>(simd.lanes()));
  state.counters["lane_bits"] =
      benchmark::Counter(static_cast<double>(simd.bits));
}
BENCHMARK(BM_KernelPPSFP)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PodemPerFault(benchmark::State& state) {
  const netlist::Circuit c = mid_circuit();
  const fault::FaultList fl = fault::FaultList::build(c);
  atpg::Podem podem(c);
  std::size_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        podem.generate(fl.representative(
            static_cast<fault::FaultClassId>(id % fl.num_classes()))));
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PodemPerFault);

// ATPG backend per-fault cost across circuit sizes (Arg = gate count),
// for comparing the sat/podem ratio per size.  Both engines walk the
// same fault list round-robin so the fault mix is identical; the SAT
// backend amortizes its one-time circuit encoding across the
// incremental per-fault solves, which is exactly how the runner uses
// it under --atpg=sat/auto.
netlist::Circuit sized_circuit(std::size_t gates) {
  gen::GenParams p;
  p.name = "bench";
  p.seed = 12345;
  p.num_inputs = 16;
  p.num_outputs = 16;
  p.num_flip_flops = 64;
  p.num_gates = gates;
  return gen::generate_circuit(p);
}

void BM_AtpgPodem(benchmark::State& state) {
  const netlist::Circuit c =
      sized_circuit(static_cast<std::size_t>(state.range(0)));
  const fault::FaultList fl = fault::FaultList::build(c);
  atpg::Podem podem(c);
  std::size_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        podem.generate(fl.representative(
            static_cast<fault::FaultClassId>(id % fl.num_classes()))));
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AtpgPodem)->Arg(250)->Arg(1000);

void BM_AtpgSat(benchmark::State& state) {
  const netlist::Circuit c =
      sized_circuit(static_cast<std::size_t>(state.range(0)));
  const fault::FaultList fl = fault::FaultList::build(c);
  atpg::SatBackend sat(c);
  std::size_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sat.generate(fl.representative(
            static_cast<fault::FaultClassId>(id % fl.num_classes()))));
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
  const atpg::SatBackendStats& s = sat.stats();
  state.counters["conflicts/solve"] = benchmark::Counter(
      s.solve_calls > 0
          ? static_cast<double>(s.conflicts) /
                static_cast<double>(s.solve_calls)
          : 0.0);
}
BENCHMARK(BM_AtpgSat)->Arg(250)->Arg(1000);

void BM_AtpgSatTransition(benchmark::State& state) {
  const netlist::Circuit c =
      sized_circuit(static_cast<std::size_t>(state.range(0)));
  const fault::FaultList fl =
      fault::FaultList::build(c, fault::FaultModel::transition());
  atpg::SatBackend sat(c);
  std::size_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sat.generate_transition(fl.representative(
            static_cast<fault::FaultClassId>(id % fl.num_classes()))));
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AtpgSatTransition)->Arg(250)->Arg(1000);

void BM_BenchParseRoundTrip(benchmark::State& state) {
  const netlist::Circuit c = mid_circuit();
  const std::string text = netlist::to_bench_string(c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(netlist::parse_bench(text, "rt"));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_BenchParseRoundTrip);

}  // namespace

// Custom main: stamp the detected SIMD configuration into the JSON
// context (the "simd" section of the BENCH_kernel.json artifact) before
// running — detected ISA, resolved lane width, and the PPSFP batch
// width (tests packed per wide pass).
int main(int argc, char** argv) {
  const sim::SimdConfig simd = sim::resolve_simd(sim::LaneWidth::Auto);
  benchmark::AddCustomContext("simd_isa", sim::isa_name(simd.isa));
  benchmark::AddCustomContext("simd_lane_bits", std::to_string(simd.bits));
  benchmark::AddCustomContext("simd_ppsfp_tests_per_pass",
                              std::to_string(simd.lanes()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
