#include "expt/runner.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <unordered_map>

#include "atpg/comb_tset.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "tcomp/baselines.hpp"
#include "tcomp/pipeline.hpp"
#include "tgen/greedy_tgen.hpp"
#include "tgen/random_seq.hpp"
#include "util/event_bus.hpp"
#include "util/rng.hpp"
#include "util/store.hpp"
#include "util/telemetry.hpp"

namespace scanc::expt {
namespace {

/// Bump when measurement semantics change: stale cache entries and
/// journals are discarded by version mismatch.
constexpr int kCacheVersion = 6;

void put(std::ostream& out, const std::string& key, std::uint64_t v) {
  out << key << "=" << v << "\n";
}

void put(std::ostream& out, const std::string& key, double v) {
  out << key << "=" << v << "\n";
}

void put_variant(std::ostream& out, const std::string& p,
                 const VariantResult& v) {
  put(out, p + ".det_t0", v.det_t0);
  put(out, p + ".det_scan", v.det_scan);
  put(out, p + ".det_final", v.det_final);
  put(out, p + ".len_t0", v.len_t0);
  put(out, p + ".len_scan", v.len_scan);
  put(out, p + ".added", v.added);
  put(out, p + ".cyc_init", v.cyc_init);
  put(out, p + ".cyc_comp", v.cyc_comp);
  put(out, p + ".atspeed_ave", v.atspeed_ave);
  put(out, p + ".atspeed_min", v.atspeed_min);
  put(out, p + ".atspeed_max", v.atspeed_max);
  put(out, p + ".tests_final", v.tests_final);
  put(out, p + ".vectors_final", v.vectors_final);
}

using Map = std::unordered_map<std::string, std::string>;

// No-throw lookups: a missing or malformed key flips `ok` so the caller
// treats the whole entry as a cache miss.  A corrupt file must never
// escape as an exception (the store layer already filters torn writes;
// this guards entries whose *payload* was damaged or hand-edited).

std::uint64_t get_u(const Map& m, const std::string& key, bool& ok) {
  const auto it = m.find(key);
  if (it == m.end()) {
    ok = false;
    return 0;
  }
  std::uint64_t v = 0;
  const char* first = it->second.data();
  const char* last = first + it->second.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || ptr != last) {
    ok = false;
    return 0;
  }
  return v;
}

double get_d(const Map& m, const std::string& key, bool& ok) {
  const auto it = m.find(key);
  if (it == m.end()) {
    ok = false;
    return 0.0;
  }
  // strtod instead of from_chars<double> for toolchain portability;
  // it never throws.  Reject trailing junk and empty values.
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() ||
      end != it->second.c_str() + it->second.size()) {
    ok = false;
    return 0.0;
  }
  return v;
}

std::string get_s(const Map& m, const std::string& key, bool& ok) {
  const auto it = m.find(key);
  if (it == m.end()) {
    ok = false;
    return {};
  }
  return it->second;
}

VariantResult get_variant(const Map& m, const std::string& p, bool& ok) {
  VariantResult v;
  v.det_t0 = get_u(m, p + ".det_t0", ok);
  v.det_scan = get_u(m, p + ".det_scan", ok);
  v.det_final = get_u(m, p + ".det_final", ok);
  v.len_t0 = get_u(m, p + ".len_t0", ok);
  v.len_scan = get_u(m, p + ".len_scan", ok);
  v.added = get_u(m, p + ".added", ok);
  v.cyc_init = get_u(m, p + ".cyc_init", ok);
  v.cyc_comp = get_u(m, p + ".cyc_comp", ok);
  v.atspeed_ave = get_d(m, p + ".atspeed_ave", ok);
  v.atspeed_min = get_u(m, p + ".atspeed_min", ok);
  v.atspeed_max = get_u(m, p + ".atspeed_max", ok);
  v.tests_final = get_u(m, p + ".tests_final", ok);
  v.vectors_final = get_u(m, p + ".vectors_final", ok);
  return v;
}

Map parse_lines(const std::string& text) {
  Map m;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    m[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return m;
}

// ---------------------------------------------------------------------
// Per-phase checkpoint journal.
//
// run_circuit's measurement splits into four independent phases (the
// pipeline on the greedy T0, the pipeline on the random T0, the [4]
// baseline, the dynamic baseline).  Each phase's scalar results are
// journaled — atomically, via the checksummed store — the moment the
// phase completes *uninterrupted*; a later attempt (after a deadline
// cut, SIGINT, or kill -9) reloads the journal and skips straight to
// the first missing phase.  Inputs (circuit, C, T0) are recomputed
// deterministically from the seed, so a resumed run produces numbers
// bit-identical to an uninterrupted one.  The `seconds` field
// accumulates wall-clock across attempts.

struct PhaseJournal {
  bool has_atpg = false;
  bool has_random = false;
  bool has_baseline4 = false;
  bool has_dynamic = false;
  VariantResult atpg;
  VariantResult random;
  std::uint64_t cyc_4_init = 0;
  std::uint64_t cyc_4_comp = 0;
  double atspeed_ave_4 = 0.0;
  std::size_t atspeed_min_4 = 0;
  std::size_t atspeed_max_4 = 0;
  std::uint64_t cyc_dyn = 0;
  double seconds = 0.0;  ///< wall-clock spent in prior attempts
  /// Cumulative telemetry counters across all attempts, captured at the
  /// last checkpoint, and the pid of the process that wrote them.  On
  /// load, a differing pid means the writer died: its totals are
  /// credited into the live registry so a resumed run's metrics
  /// snapshot reports cumulative work.  A matching pid means the
  /// counters are already in this process's registry (in-process
  /// resume) and must not be double-counted.
  obs::CounterSnapshot obs{};
  std::uint64_t obs_pid = 0;
};

std::string serialize_journal(const PhaseJournal& j) {
  std::ostringstream out;
  out << "version=" << kCacheVersion << "\n";
  put(out, "seconds", j.seconds);
  if (j.has_atpg) put_variant(out, "atpg", j.atpg);
  if (j.has_random) put_variant(out, "random", j.random);
  if (j.has_baseline4) {
    put(out, "cyc_4_init", j.cyc_4_init);
    put(out, "cyc_4_comp", j.cyc_4_comp);
    put(out, "atspeed_ave_4", j.atspeed_ave_4);
    put(out, "atspeed_min_4", j.atspeed_min_4);
    put(out, "atspeed_max_4", j.atspeed_max_4);
  }
  if (j.has_dynamic) put(out, "cyc_dyn", j.cyc_dyn);
  put(out, "obs_pid", j.obs_pid);
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    put(out,
        std::string("obs.") +
            obs::counter_name(static_cast<obs::Counter>(i)),
        j.obs[i]);
  }
  return out.str();
}

PhaseJournal parse_journal(const std::string& text) {
  const Map m = parse_lines(text);
  PhaseJournal j;
  bool ok = true;
  if (get_u(m, "version", ok) != kCacheVersion || !ok) return {};
  j.seconds = get_d(m, "seconds", ok);
  if (!ok) return {};
  // Each phase is optional; a damaged phase degrades to "recompute it".
  if (m.count("atpg.det_t0") != 0) {
    bool vok = true;
    j.atpg = get_variant(m, "atpg", vok);
    j.has_atpg = vok;
  }
  if (m.count("random.det_t0") != 0) {
    bool vok = true;
    j.random = get_variant(m, "random", vok);
    j.has_random = vok;
  }
  if (m.count("cyc_4_init") != 0) {
    bool vok = true;
    j.cyc_4_init = get_u(m, "cyc_4_init", vok);
    j.cyc_4_comp = get_u(m, "cyc_4_comp", vok);
    j.atspeed_ave_4 = get_d(m, "atspeed_ave_4", vok);
    j.atspeed_min_4 = get_u(m, "atspeed_min_4", vok);
    j.atspeed_max_4 = get_u(m, "atspeed_max_4", vok);
    j.has_baseline4 = vok;
  }
  if (m.count("cyc_dyn") != 0) {
    bool vok = true;
    j.cyc_dyn = get_u(m, "cyc_dyn", vok);
    j.has_dynamic = vok;
  }
  // Telemetry counters are best-effort: a missing or malformed value
  // reads as 0 without invalidating the journal (metrics degrade, the
  // measured numbers do not).
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    bool cok = true;
    const std::uint64_t v = get_u(
        m,
        std::string("obs.") +
            obs::counter_name(static_cast<obs::Counter>(i)),
        cok);
    j.obs[i] = cok ? v : 0;
  }
  {
    bool cok = true;
    const std::uint64_t pid = get_u(m, "obs_pid", cok);
    j.obs_pid = cok ? pid : 0;
  }
  return j;
}

struct VariantMeasurement {
  VariantResult result;
  bool completed = true;
  tcomp::PipelinePhase stopped_at = tcomp::PipelinePhase::Done;
};

VariantMeasurement measure_variant(fault::FaultSimulator& fsim,
                                   const sim::Sequence& t0,
                                   std::span<const atpg::CombTest> comb,
                                   const RunnerOptions& options,
                                   const fault::FaultSet& universe) {
  tcomp::PipelineOptions popt;
  popt.cancel = options.cancel;
  popt.num_chains = options.num_chains;
  popt.universe = universe;  // empty unless the backend proved faults out
  const tcomp::PipelineResult r = tcomp::run_pipeline(fsim, t0, comb, popt);
  VariantMeasurement out;
  out.completed = r.completed;
  out.stopped_at = r.stopped_at;
  VariantResult& v = out.result;
  v.det_t0 = r.f0.count();
  v.det_scan = r.f_seq.count();
  v.det_final = r.final_coverage.count();
  v.len_t0 = t0.length();
  v.len_scan = r.tau_seq.seq.length();
  v.added = r.added_tests;
  v.cyc_init = r.initial_cycles;
  v.cyc_comp = r.compacted_cycles;
  const tcomp::AtSpeedStats s = tcomp::at_speed_stats(r.compacted);
  v.atspeed_ave = s.average;
  v.atspeed_min = s.min_length;
  v.atspeed_max = s.max_length;
  v.tests_final = r.compacted.size();
  v.vectors_final = r.compacted.total_vectors();
  return out;
}

}  // namespace

std::string cache_entry_path(const RunnerOptions& options,
                             const std::string& circuit_name) {
  std::string path = options.cache_path + "." + circuit_name + ".seed" +
                     std::to_string(options.seed);
  // A non-default fault model or chain count measures different numbers,
  // so each combination gets its own entry (and journal); the defaults
  // keep the historical path so existing caches stay valid.
  if (options.fault_model != fault::FaultModelKind::StuckAt) {
    path += std::string(".") +
            fault::FaultModel::get(options.fault_model).name();
  }
  if (options.num_chains > 1) {
    path += ".ch" + std::to_string(options.num_chains);
  }
  // A non-default ATPG backend changes C and the fault universe
  // (docs/atpg.md), hence the measured numbers.
  if (options.atpg != atpg::AtpgBackend::Podem) {
    path += std::string(".") + atpg::to_string(options.atpg);
  }
  return path;
}

std::string serialize_run(const CircuitRun& run) {
  std::ostringstream out;
  out << "version=" << kCacheVersion << "\n";
  out << "name=" << run.name << "\n";
  put(out, "flip_flops", run.flip_flops);
  put(out, "comb_tests", run.comb_tests);
  put(out, "faults", run.faults);
  put(out, "detectable", run.detectable);
  put(out, "proven_untestable", run.proven_untestable);
  put(out, "aborted", run.aborted);
  put_variant(out, "atpg", run.atpg);
  put_variant(out, "random", run.random);
  put(out, "cyc_dyn", run.cyc_dyn);
  put(out, "cyc_4_init", run.cyc_4_init);
  put(out, "cyc_4_comp", run.cyc_4_comp);
  put(out, "atspeed_ave_4", run.atspeed_ave_4);
  put(out, "atspeed_min_4", run.atspeed_min_4);
  put(out, "atspeed_max_4", run.atspeed_max_4);
  put(out, "seconds", run.seconds);
  put(out, "completed", static_cast<std::uint64_t>(run.completed ? 1 : 0));
  out << "stopped_at=" << run.stopped_at << "\n";
  return out.str();
}

std::optional<CircuitRun> deserialize_run(const std::string& text) {
  const Map m = parse_lines(text);
  bool ok = true;
  if (get_u(m, "version", ok) != kCacheVersion || !ok) return std::nullopt;
  CircuitRun run;
  run.name = get_s(m, "name", ok);
  run.flip_flops = get_u(m, "flip_flops", ok);
  run.comb_tests = get_u(m, "comb_tests", ok);
  run.faults = get_u(m, "faults", ok);
  run.detectable = get_u(m, "detectable", ok);
  run.proven_untestable = get_u(m, "proven_untestable", ok);
  run.aborted = get_u(m, "aborted", ok);
  run.atpg = get_variant(m, "atpg", ok);
  run.random = get_variant(m, "random", ok);
  run.cyc_dyn = get_u(m, "cyc_dyn", ok);
  run.cyc_4_init = get_u(m, "cyc_4_init", ok);
  run.cyc_4_comp = get_u(m, "cyc_4_comp", ok);
  run.atspeed_ave_4 = get_d(m, "atspeed_ave_4", ok);
  run.atspeed_min_4 = get_u(m, "atspeed_min_4", ok);
  run.atspeed_max_4 = get_u(m, "atspeed_max_4", ok);
  run.seconds = get_d(m, "seconds", ok);
  run.completed = get_u(m, "completed", ok) != 0;
  run.stopped_at = m.count("stopped_at") != 0 ? m.at("stopped_at") : "";
  if (!ok) return std::nullopt;
  return run;
}

CircuitRun run_circuit(const gen::SuiteEntry& entry,
                       const RunnerOptions& options) {
  const bool use_disk = !options.cache_path.empty();
  const std::string path = cache_entry_path(options, entry.params.name);
  const std::string journal_path = path + ".journal";

  if (use_disk && !options.force_fresh) {
    // A corrupt, truncated, or version-skewed entry degrades to a miss:
    // store_read filters envelope damage, deserialize_run filters
    // payload damage, and neither throws.
    if (const auto payload = util::store_read(path)) {
      if (auto run = deserialize_run(*payload)) {
        // A crash between the final write and the journal's retirement
        // (below) leaves a redundant journal; the hit retires it.
        std::remove(journal_path.c_str());
        return *run;
      }
    }
  }

  PhaseJournal journal;
  if (use_disk && !options.force_fresh) {
    if (const auto payload = util::store_read(journal_path)) {
      journal = parse_journal(*payload);
    }
  }
  if (options.force_fresh && use_disk) std::remove(journal_path.c_str());

  // Counter totals journaled by a *dead* process are merged into the
  // live registry; an in-process retry already holds them.
  if (journal.obs_pid != 0 &&
      journal.obs_pid != static_cast<std::uint64_t>(::getpid())) {
    obs::credit(journal.obs);
  }
  // This attempt's contribution is measured against the registry state
  // at entry (which now includes any credited carry-over).
  const obs::CounterSnapshot attempt_start = obs::snapshot_counters();

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // Every obs::Phase below — runner stages and the pipeline's phases —
  // hands its progress note to this hook (the one --verbose format).
  obs::ProgressHook progress;
  if (options.progress || options.verbose) {
    progress = [&](const char* what) {
      if (options.progress) options.progress(what);
      if (options.verbose) {
        std::cerr << "[" << entry.params.name << " +" << std::fixed
                  << std::setprecision(1) << elapsed() << "s] " << what
                  << "\n";
      }
    };
  }
  const obs::EventJobScope scope(obs::current_event_job(),
                                 std::move(progress));
  // Opened after the journal credit, so the root record's counter
  // delta and seconds are this call's work only.
  const obs::Phase root("run_circuit", "run");

  // Checkpoint: persist the journal after a phase completes.  Atomic
  // replacement means a kill -9 mid-write leaves the previous journal
  // intact; the interrupted phase simply reruns next time.
  const auto checkpoint = [&] {
    if (!use_disk) return;
    PhaseJournal j = journal;
    j.seconds += elapsed();
    // Cumulative counters = the loaded carry-over plus the delta this
    // attempt produced (delta-based so a fork'd child snapshotting the
    // parent's registry stays correct).
    const obs::CounterSnapshot delta =
        obs::counter_delta(obs::snapshot_counters(), attempt_start);
    for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
      j.obs[i] = journal.obs[i] + delta[i];
    }
    j.obs_pid = static_cast<std::uint64_t>(::getpid());
    util::store_write(journal_path, serialize_journal(j));
  };

  const fault::FaultModel& model =
      fault::FaultModel::get(options.fault_model);
  SharedInputs shared;
  // A host-supplied (pooled) simulator is reused from earlier jobs on
  // this circuit; otherwise build a private one.
  std::optional<fault::FaultSimulator> own_fsim;
  {
    const obs::Phase stage("build", "stage", "building circuit");
    if (options.shared_inputs) {
      shared = options.shared_inputs(entry, options.fault_model);
    }
    if (!shared.circuit) {
      shared.circuit = std::make_shared<const netlist::Circuit>(
          gen::build_suite_circuit(entry));
    }
    if (!shared.faults) {
      shared.faults = std::make_shared<const fault::FaultList>(
          fault::FaultList::build(*shared.circuit, model));
    }
    if (options.simulator == nullptr) {
      own_fsim.emplace(*shared.circuit, *shared.faults);
    }
  }
  const netlist::Circuit& circuit = *shared.circuit;
  const fault::FaultList& faults = *shared.faults;
  fault::FaultSimulator& fsim =
      options.simulator ? *options.simulator : *own_fsim;
  // The cancel token is detached on every exit path so a raised per-job
  // token never leaks into the next lease.
  struct CancelDetach {
    fault::FaultSimulator& fsim;
    ~CancelDetach() { fsim.set_cancel({}); }
  } cancel_detach{fsim};
  fsim.set_num_threads(options.num_threads);
  fsim.set_cancel(options.cancel);
  const std::size_t nsv = circuit.num_flip_flops();
  const std::size_t chains = std::max<std::size_t>(1, options.num_chains);

  CircuitRun run;
  run.name = entry.params.name;
  run.flip_flops = nsv;
  run.faults = faults.num_classes();

  // Returns `run` marked partial.  Finished phases were already
  // journaled; this attempt's wall clock joins the accumulated total so
  // the final (completed) `seconds` covers all attempts.
  const auto partial = [&](const std::string& where) {
    run.completed = false;
    run.stopped_at = where;
    run.seconds = journal.seconds + elapsed();
    return run;
  };

  // Non-empty only under --atpg=sat/auto: all faults minus the classes
  // proven untestable, handed to every pipeline run so Phase 3 stops
  // chasing faults no test can detect.  Stays empty (= no exclusion)
  // under the default backend for bit-identical legacy measurements.
  fault::FaultSet universe;
  atpg::CombTestSet comb;
  {
    const obs::Phase stage("atpg", "stage",
                           "generating combinational test set C");
    atpg::CombTestSetOptions copt;
    copt.seed = options.seed;
    copt.cancel = options.cancel;
    copt.backend = options.atpg;
    if (!model.frame_gated()) {
      comb = atpg::generate_comb_test_set(circuit, faults, copt);
      run.detectable = faults.num_classes() - comb.proven_untestable;
      run.proven_untestable = comb.proven_untestable;
      run.aborted = comb.aborted;
      if (options.atpg != atpg::AtpgBackend::Podem) {
        universe = fsim.all_faults();
        universe -= comb.untestable;
      }
    } else {
      // The combinational ATPG is stuck-at-only: under a frame-gated
      // model C is still the stuck-at test set (deterministic from the
      // seed, the same patterns as a stuck-at run), while the coverage
      // bookkeeping switches to the simulator's universe.  Stuck-at
      // untestability proofs do not carry over, and C's `detected` set
      // indexes the wrong classes — the dynamic baseline instead targets
      // the full fault list, against which C's length-one tests launch
      // no transitions.
      const fault::FaultList sa_faults = fault::FaultList::build(circuit);
      comb = atpg::generate_comb_test_set(circuit, sa_faults, copt);
      comb.detected = fsim.all_faults();
      comb.proven_untestable = 0;
      run.detectable = faults.num_classes();
    }
  }
  if (model.frame_gated() && options.atpg != atpg::AtpgBackend::Podem) {
    // Resolve the transition universe directly (C's stuck-at proofs do
    // not carry over): a cheap random two-frame prefilter knocks out the
    // easily-launched classes, then the SAT backend's two-timeframe
    // encoding resolves the remainder exactly.
    const obs::Phase stage("tdf_universe", "stage",
                           "resolving transition-fault universe (SAT)");
    fault::FaultSet unresolved = fsim.all_faults();
    util::Rng rng(options.seed ^ 0x7df5a11dULL);
    constexpr std::size_t kPrefilter = 64;
    std::vector<sim::Vector3> states(kPrefilter);
    std::vector<sim::Sequence> seqs(kPrefilter);
    std::vector<fault::FaultSimulator::BatchTest> batch(kPrefilter);
    for (std::size_t i = 0; i < kPrefilter; ++i) {
      states[i] = sim::random_vector(circuit.num_flip_flops(), rng);
      seqs[i].frames.push_back(sim::random_vector(circuit.num_inputs(), rng));
      seqs[i].frames.push_back(sim::random_vector(circuit.num_inputs(), rng));
      batch[i] = {&states[i], &seqs[i]};
    }
    for (const fault::FaultSet& det : fsim.detect_batch(batch, &unresolved)) {
      unresolved -= det;
    }
    atpg::SatBackendOptions so;
    so.cancel = options.cancel;
    atpg::SatBackend sat(circuit, so);
    universe = fsim.all_faults();
    for (fault::FaultClassId id = 0; id < faults.num_classes(); ++id) {
      if (!unresolved.test(id)) continue;
      if (options.cancel.stop_requested()) break;
      const atpg::TransitionTest t =
          sat.generate_transition(faults.representative(id));
      if (t.status == atpg::PodemStatus::Untestable) {
        universe.reset(id);
        ++run.proven_untestable;
      } else if (t.status == atpg::PodemStatus::Aborted) {
        ++run.aborted;
      }
    }
    run.detectable = faults.num_classes() - run.proven_untestable;
  }
  run.comb_tests = comb.tests.size();
  if (options.cancel.stop_requested()) return partial("setup");

  // --- Stage: pipeline on the greedy T0 ------------------------------
  if (journal.has_atpg) {
    const obs::Phase stage("pipeline_greedy", "stage",
                           "pipeline (greedy T0): journaled, skipping");
    run.atpg = journal.atpg;
  } else {
    const tgen::GreedyTgenResult t0_atpg = [&] {
      const obs::Phase stage("greedy_t0", "stage", "generating T0 (greedy)");
      tgen::GreedyTgenOptions gopt;
      gopt.seed = options.seed;
      gopt.max_length = 1024;
      gopt.cancel = options.cancel;
      return generate_test_sequence(circuit, faults, gopt);
    }();
    if (options.cancel.stop_requested()) return partial("setup");

    const obs::Phase stage("pipeline_greedy", "stage",
                           "pipeline (greedy T0)");
    const VariantMeasurement m = measure_variant(
        fsim, t0_atpg.sequence, comb.tests, options, universe);
    run.atpg = m.result;
    // Journal only a stage the token never interrupted: the token is
    // sticky, so stop_requested() here proves every simulation inside
    // the stage ran to completion.
    if (!m.completed || options.cancel.stop_requested()) {
      return partial(std::string("pipeline-atpg/") +
                     tcomp::to_string(m.stopped_at));
    }
    journal.atpg = run.atpg;
    journal.has_atpg = true;
    checkpoint();
  }

  // --- Stage: pipeline on the random T0 ------------------------------
  if (journal.has_random) {
    const obs::Phase stage("pipeline_random", "stage",
                           "pipeline (random T0): journaled, skipping");
    run.random = journal.random;
  } else {
    const obs::Phase stage("pipeline_random", "stage",
                           "pipeline (random T0)");
    const sim::Sequence t0_rand = tgen::random_test_sequence(
        circuit, options.random_t0_length, options.seed);
    const VariantMeasurement m =
        measure_variant(fsim, t0_rand, comb.tests, options, universe);
    run.random = m.result;
    if (!m.completed || options.cancel.stop_requested()) {
      return partial(std::string("pipeline-random/") +
                     tcomp::to_string(m.stopped_at));
    }
    journal.random = run.random;
    journal.has_random = true;
    checkpoint();
  }

  // --- Stage: baseline [4] -------------------------------------------
  if (journal.has_baseline4) {
    const obs::Phase stage("baseline4", "stage",
                           "baseline [4]: journaled, skipping");
    run.cyc_4_init = journal.cyc_4_init;
    run.cyc_4_comp = journal.cyc_4_comp;
    run.atspeed_ave_4 = journal.atspeed_ave_4;
    run.atspeed_min_4 = journal.atspeed_min_4;
    run.atspeed_max_4 = journal.atspeed_max_4;
  } else {
    const obs::Phase stage("baseline4", "stage", "baseline [4]");
    const tcomp::ScanTestSet b4 = tcomp::comb_initial_set(comb.tests);
    run.cyc_4_init = tcomp::clock_cycles(b4, nsv, chains);
    tcomp::CombineOptions b4opt;
    b4opt.cancel = options.cancel;
    const tcomp::CombineResult b4c = tcomp::combine_tests(fsim, b4, b4opt);
    run.cyc_4_comp = tcomp::clock_cycles(b4c.tests, nsv, chains);
    const tcomp::AtSpeedStats s4 = tcomp::at_speed_stats(b4c.tests);
    run.atspeed_ave_4 = s4.average;
    run.atspeed_min_4 = s4.min_length;
    run.atspeed_max_4 = s4.max_length;
    if (options.cancel.stop_requested()) return partial("baseline4");
    journal.cyc_4_init = run.cyc_4_init;
    journal.cyc_4_comp = run.cyc_4_comp;
    journal.atspeed_ave_4 = run.atspeed_ave_4;
    journal.atspeed_min_4 = run.atspeed_min_4;
    journal.atspeed_max_4 = run.atspeed_max_4;
    journal.has_baseline4 = true;
    checkpoint();
  }

  // --- Stage: dynamic baseline ---------------------------------------
  if (options.run_dynamic_baseline) {
    if (journal.has_dynamic) {
      const obs::Phase stage("dynamic", "stage",
                             "baseline [2,3]-style dynamic: journaled, "
                             "skipping");
      run.cyc_dyn = journal.cyc_dyn;
    } else {
      const obs::Phase stage("dynamic", "stage",
                             "baseline [2,3]-style dynamic");
      tcomp::DynamicBaselineOptions dopt;
      dopt.seed = options.seed;
      const tcomp::ScanTestSet dyn =
          tcomp::dynamic_baseline(fsim, comb.tests, comb.detected, dopt);
      run.cyc_dyn = tcomp::clock_cycles(dyn, nsv, chains);
      if (options.cancel.stop_requested()) return partial("dynamic");
      journal.cyc_dyn = run.cyc_dyn;
      journal.has_dynamic = true;
      checkpoint();
    }
  }

  run.seconds = journal.seconds + elapsed();

  if (use_disk) {
    // Final result first, then retire the journal; a crash between the
    // two leaves a redundant journal that the next cache hit retires.
    util::store_write(path, serialize_run(run));
    std::remove(journal_path.c_str());
  }
  return run;
}

std::vector<CircuitRun> run_suite(bool include_large,
                                  const RunnerOptions& options) {
  std::vector<CircuitRun> runs;
  for (const gen::SuiteEntry& e : gen::suite()) {
    if (e.large && !include_large) continue;
    if (options.cancel.stop_requested()) break;
    runs.push_back(run_circuit(e, options));
    // A partial run means the token fired mid-circuit; keep the row
    // (tables mark it) but do not start further circuits.
    if (!runs.back().completed) break;
  }
  return runs;
}

}  // namespace scanc::expt
