#include "check/differ.hpp"

#include <memory>
#include <sstream>
#include <utility>

#include "atpg/comb_tset.hpp"
#include "atpg/podem.hpp"
#include "atpg/sat_backend.hpp"
#include "check/oracle_sim.hpp"
#include "fault/fault_sim.hpp"
#include "fault/model.hpp"
#include "tcomp/omission.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace scanc::check {

using fault::FaultClassId;
using fault::FaultSet;
using fault::FaultSimulator;
using sim::Sequence;
using sim::V3;
using sim::Vector3;

namespace {

struct Config {
  const char* name;
  std::size_t threads;
  bool fresh_per_query;  ///< new simulator per query
  sim::LaneWidth lanes = sim::LaneWidth::W64;
};

/// First few elements of the symmetric difference, for messages.
std::string describe_diff(const FaultSet& a, const FaultSet& b) {
  std::ostringstream os;
  std::size_t shown = 0;
  for (std::size_t i = 0; i < a.size() && shown < 8; ++i) {
    if (a.test(i) == b.test(i)) continue;
    os << (shown == 0 ? "" : " ") << (a.test(i) ? "-" : "+") << i;
    ++shown;
  }
  return os.str();
}

class CaseChecker {
 public:
  CaseChecker(const Workload& w, const CheckConfig& cfg)
      : w_(&w),
        cfg_(&cfg),
        targets_(w.target_set()),
        ref_(w.circuit, w.faults, w.scan_mask),
        watchdog_(cfg.max_case_seconds > 0.0
                      ? util::CancelToken::make(
                            util::Deadline::after(cfg.max_case_seconds))
                      : util::CancelToken{}) {
    // The reference stays on 64-bit lanes: every wide or
    // pattern-parallel result is judged against it.
    ref_.set_lane_width(sim::LaneWidth::W64);
    configs_ = {
        Config{"w64/N", cfg.threads, false},
        Config{"default/cold", 1, true, sim::LaneWidth::Auto},
        Config{"wide", 1, false, cfg.lane_width},
        Config{"wide/N", cfg.threads, false, cfg.lane_width},
    };
    for (const Config& c : configs_) {
      shared_.push_back(c.fresh_per_query ? nullptr : make_sim(c));
    }
  }

  CaseReport run() {
    for (std::size_t i = 0; i < w_->tests.size() && !cut(); ++i) {
      check_scan_test(i);
    }
    if (!cut()) check_no_scan();
    if (!cut()) check_batch();
    if (!cut()) check_detects_all_batch();
    if (w_->faults.model().kind() == fault::FaultModelKind::StuckAt &&
        !cut()) {
      check_podem_state();
    }
    if (cfg_->atpg != AtpgCheck::Off && !cut()) check_atpg();
    if (cfg_->run_metamorphic && !cut()) {
      check_session_resume();
      check_cycles();
    }
    if (cut()) {
      report_.timed_out = true;
      obs::add(obs::Counter::CheckCaseTimeouts);
    }
    obs::add(obs::Counter::CheckCasesRun);
    obs::add(obs::Counter::CheckQueriesCompared, report_.comparisons);
    if (report_.failed()) {
      obs::add(obs::Counter::CheckDivergences, report_.divergences.size());
    }
    return std::move(report_);
  }

 private:
  std::unique_ptr<FaultSimulator> make_sim(const Config& c) const {
    auto s = std::make_unique<FaultSimulator>(w_->circuit, w_->faults,
                                              w_->scan_mask);
    s->set_num_threads(c.threads);
    s->set_lane_width(c.lanes);
    return s;
  }

  /// True once the per-case watchdog fired.  Polled at comparison
  /// boundaries; a cut case skips remaining checks (timed_out, never a
  /// divergence), so verdicts recorded before the cut stay valid.
  [[nodiscard]] bool cut() const { return watchdog_.stop_requested(); }

  /// Runs `fn` on every non-reference configuration's simulator.
  template <typename Fn>
  void for_each_config(Fn&& fn) {
    for (std::size_t i = 0; i < configs_.size() && !cut(); ++i) {
      if (configs_[i].fresh_per_query) {
        auto s = make_sim(configs_[i]);
        fn(configs_[i].name, *s);
      } else {
        fn(configs_[i].name, *shared_[i]);
      }
    }
  }

  void fail(const std::string& where, const std::string& what) {
    std::ostringstream os;
    os << "seed=" << w_->seed << " " << where << ": " << what;
    report_.divergences.push_back(os.str());
  }

  bool expect_sets_equal(const std::string& where, const FaultSet& want,
                         const FaultSet& got) {
    ++report_.comparisons;
    if (want == got) return true;
    fail(where, "fault sets differ [" + describe_diff(want, got) + "]");
    return false;
  }

  void expect_true(const std::string& where, bool ok,
                   const char* what) {
    ++report_.comparisons;
    if (!ok) fail(where, what);
  }

  void check_scan_test(std::size_t ti) {
    const tcomp::ScanTest& test = w_->tests[ti];
    const Sequence& seq = test.seq;
    const std::size_t len = seq.length();
    const std::string tag = "test=" + std::to_string(ti);

    const FaultSet base = ref_.detect_scan_test(test.scan_in, seq, &targets_);
    const auto times = ref_.detection_times(test.scan_in, seq, targets_);
    const auto prefix = ref_.prefix_detection(test.scan_in, seq, targets_);

    for_each_config([&](const char* name, FaultSimulator& s) {
      const std::string where = tag + " cfg=" + name;
      expect_sets_equal(where + " detect_scan_test",
                        base, s.detect_scan_test(test.scan_in, seq,
                                                 &targets_));
      const auto t2 = s.detection_times(test.scan_in, seq, targets_);
      expect_true(where + " detection_times", t2.targets == times.targets,
                  "target order differs");
      expect_true(where + " detection_times",
                  t2.first_po == times.first_po, "first_po differs");
      expect_true(where + " detection_times",
                  t2.state_diff == times.state_diff, "state_diff differs");
      const auto p2 = s.prefix_detection(test.scan_in, seq, targets_);
      expect_true(where + " prefix_detection",
                  p2.targets == prefix.targets &&
                      p2.first_po == prefix.first_po &&
                      p2.detected == prefix.detected,
                  "prefix_detection differs");
    });

    // Coherence between the three views of the same test.
    for (std::size_t j = 0; j < times.targets.size(); ++j) {
      const FaultClassId f = times.targets[j];
      const bool full_detects =
          len > 0 ? times.detected_by_prefix(j, len - 1) : false;
      expect_true(tag + " detect-vs-times",
                  base.test(f) == full_detects,
                  "detect_scan_test disagrees with detection_times");
      expect_true(tag + " prefix-vs-times",
                  prefix.first_po[j] == times.first_po[j],
                  "prefix_detection first_po disagrees");
      expect_true(tag + " prefix-vs-detect",
                  prefix.detected.test(f) == base.test(f),
                  "prefix_detection detected disagrees");
    }

    if (cut()) return;
    check_detects_all(tag, test, base);
    if (cfg_->run_oracle && !cut()) check_oracle(tag, test, base, times);
    if (cfg_->run_metamorphic && len >= 1 && !cut()) {
      check_prefix_property(tag, test, times);
    }
    if (cfg_->run_metamorphic && len >= 2 && base.count() > 0 && !cut()) {
      check_omission(tag, test, base);
    }
  }

  void check_detects_all(const std::string& tag,
                         const tcomp::ScanTest& test, const FaultSet& base) {
    expect_true(tag + " detects_all(detected)",
                ref_.detects_all(test.scan_in, test.seq, base),
                "claimed detected set not fully detected");
    // Adding any undetected target must flip the answer.
    FaultClassId miss = 0;
    bool have_miss = false;
    targets_.for_each([&](std::size_t i) {
      if (!have_miss && !base.test(i)) {
        miss = static_cast<FaultClassId>(i);
        have_miss = true;
      }
    });
    if (have_miss) {
      FaultSet plus = base;
      plus.set(miss);
      expect_true(tag + " detects_all(+undetected)",
                  !ref_.detects_all(test.scan_in, test.seq, plus),
                  "undetected fault reported detected");
      for_each_config([&](const char* name, FaultSimulator& s) {
        expect_true(tag + " cfg=" + name + " detects_all",
                    s.detects_all(test.scan_in, test.seq, base) &&
                        !s.detects_all(test.scan_in, test.seq, plus),
                    "detects_all disagrees with reference");
      });
    }
  }

  void check_oracle(const std::string& tag, const tcomp::ScanTest& test,
                    const FaultSet& base,
                    const FaultSimulator::DetectionTimes& times) {
    const std::size_t len = test.seq.length();
    std::size_t checked = 0;
    for (std::size_t j = 0; j < times.targets.size(); ++j) {
      if (checked >= cfg_->oracle_fault_cap || cut()) break;
      ++checked;
      const FaultClassId f = times.targets[j];
      const fault::Fault& rep = w_->faults.representative(f);
      const OracleResult o =
          oracle_run(w_->circuit, w_->scan_mask, w_->faults.model(), rep,
                     &test.scan_in, test.seq, /*observe_scan_out=*/true);
      const std::string where =
          tag + " oracle class=" + std::to_string(f);
      expect_true(where, o.detected == base.test(f),
                  "oracle disagrees on detection");
      expect_true(where, o.first_po == times.first_po[j],
                  "oracle disagrees on first_po");
      bool sd_ok = true;
      for (std::size_t u = 0; u < len; ++u) {
        if ((o.state_diff[u] != 0) != times.state_diff[j].test(u)) {
          sd_ok = false;
        }
      }
      expect_true(where, sd_ok, "oracle disagrees on state_diff");
    }
  }

  void check_prefix_property(const std::string& tag,
                             const tcomp::ScanTest& test,
                             const FaultSimulator::DetectionTimes& times) {
    const std::size_t len = test.seq.length();
    std::uint64_t mix = w_->seed ^ (0x9e3779b97f4a7c15ULL * (len + 1));
    const std::size_t u = util::splitmix64(mix) % len;
    const Sequence pref = test.seq.subsequence(0, u);
    const FaultSet got =
        ref_.detect_scan_test(test.scan_in, pref, &targets_);
    FaultSet want(w_->faults.num_classes());
    for (std::size_t j = 0; j < times.targets.size(); ++j) {
      if (times.detected_by_prefix(j, u)) want.set(times.targets[j]);
    }
    expect_sets_equal(tag + " prefix(u=" + std::to_string(u) + ")", want,
                      got);
  }

  void check_omission(const std::string& tag, const tcomp::ScanTest& test,
                      const FaultSet& base) {
    const tcomp::OmissionResult r = tcomp::omit_vectors(ref_, test, base);
    expect_true(tag + " omission length",
                r.test.seq.length() + r.omitted == test.seq.length(),
                "omission length accounting broken");
    expect_true(tag + " omission coverage(ref)",
                ref_.detects_all(r.test.scan_in, r.test.seq, base),
                "omission lost a required fault (reference)");
    // Cross-config: the omission was accepted by the reference; every
    // other configuration must agree the compacted test still covers
    // F_SO.
    for_each_config([&](const char* name, FaultSimulator& s) {
      expect_true(tag + " cfg=" + std::string(name) + " omission coverage",
                  s.detects_all(r.test.scan_in, r.test.seq, base),
                  "omitted test coverage disagrees across configs");
    });
  }

  /// PODEM keeps its trail, event queue, epoch stamps and fault-site
  /// cone across generate() calls, and a leak between calls would
  /// corrupt only later faults: the engine shared across the target
  /// list, run forward and then in reverse order, must answer every
  /// fault as a fresh engine does.
  void check_podem_state() {
    atpg::PodemOptions po;
    po.scan_mask = w_->scan_mask;
    std::vector<FaultClassId> ids;
    targets_.for_each([&](std::size_t i) {
      if (ids.size() < cfg_->atpg_fault_cap) {
        ids.push_back(static_cast<FaultClassId>(i));
      }
    });
    const auto same = [](const atpg::PodemResult& a,
                         const atpg::PodemResult& b) {
      return a.status == b.status && a.backtracks == b.backtracks &&
             a.cube.state == b.cube.state && a.cube.inputs == b.cube.inputs;
    };
    atpg::Podem shared(w_->circuit, po);
    std::vector<atpg::PodemResult> forward;
    for (const FaultClassId id : ids) {
      if (cut()) return;
      forward.push_back(shared.generate(w_->faults.representative(id)));
    }
    for (std::size_t k = ids.size(); k-- > 0 && !cut();) {
      const fault::Fault& rep = w_->faults.representative(ids[k]);
      const std::string where = "podem class=" + std::to_string(ids[k]);
      const atpg::PodemResult fresh =
          atpg::Podem(w_->circuit, po).generate(rep);
      expect_true(where + " shared-forward", same(forward[k], fresh),
                  "shared PODEM engine differs from a fresh one");
      expect_true(where + " shared-reverse", same(shared.generate(rep), fresh),
                  "shared PODEM engine differs from a fresh one (reverse "
                  "order)");
    }
  }

  /// SAT ATPG laws (docs/atpg.md).  The backend runs with an unbounded
  /// conflict budget so it is complete on these tiny workloads: Aborted
  /// can only mean the case watchdog cancelled a solve, and such faults
  /// are skipped, never judged.
  void check_atpg() {
    atpg::SatBackendOptions so;
    so.scan_mask = w_->scan_mask;
    so.conflict_limit = 0;
    so.cancel = watchdog_;
    atpg::SatBackend sat(w_->circuit, so);
    atpg::PodemOptions po;
    po.scan_mask = w_->scan_mask;
    atpg::Podem podem(w_->circuit, po);
    const bool stuck =
        w_->faults.model().kind() == fault::FaultModelKind::StuckAt;
    util::Rng rng(w_->seed ^ 0x5a7ba0cedc0de5ULL);

    FaultSet proven(w_->faults.num_classes());
    std::size_t checked = 0;
    targets_.for_each([&](std::size_t i) {
      if (checked >= cfg_->atpg_fault_cap || cut()) return;
      ++checked;
      const auto id = static_cast<FaultClassId>(i);
      const fault::Fault& rep = w_->faults.representative(id);
      const std::string where = "atpg class=" + std::to_string(i);
      if (stuck) {
        const atpg::PodemResult s = sat.generate(rep);
        if (s.status == atpg::PodemStatus::Aborted) return;  // watchdog
        // Two complete-or-honest engines may never disagree on a
        // definite verdict (PODEM's abort is the honest "don't know").
        const atpg::PodemResult p = podem.generate(rep);
        if (p.status != atpg::PodemStatus::Aborted) {
          expect_true(where + " podem-vs-sat",
                      (s.status == atpg::PodemStatus::Detected) ==
                          (p.status == atpg::PodemStatus::Detected),
                      "definite PODEM and SAT verdicts disagree");
        }
        if (s.status == atpg::PodemStatus::Untestable) {
          proven.set(i);
        } else {
          confirm_comb_cube(where + " sat-cube", id, s.cube, rng);
        }
      } else {
        const atpg::TransitionTest t = sat.generate_transition(rep);
        if (t.status == atpg::PodemStatus::Aborted) return;  // watchdog
        if (t.status == atpg::PodemStatus::Untestable) {
          proven.set(i);
        } else {
          confirm_transition_test(where + " sat-tdf", id, t, rng);
        }
      }
    });

    // Proofs are final: no scan test of the encoding's shape (one frame
    // for stuck-at, two for transition — exact under any scan mask) may
    // detect a proven-untestable fault.  Judge the workload's own tests
    // of that shape plus fresh fully-specified random ones.
    const std::size_t shape = stuck ? 1 : 2;
    if (proven.count() > 0) {
      for (std::size_t ti = 0; ti < w_->tests.size() && !cut(); ++ti) {
        const tcomp::ScanTest& t = w_->tests[ti];
        if (t.seq.length() != shape) continue;
        expect_true("atpg proof-vs-test=" + std::to_string(ti),
                    ref_.detect_scan_test(t.scan_in, t.seq, &proven)
                            .count() == 0,
                    "workload test detects a SAT-proven-untestable fault");
      }
      for (int t = 0; t < 16 && !cut(); ++t) {
        const sim::Vector3 state =
            sim::random_vector(w_->circuit.num_flip_flops(), rng);
        Sequence seq;
        for (std::size_t u = 0; u < shape; ++u) {
          seq.frames.push_back(
              sim::random_vector(w_->circuit.num_inputs(), rng));
        }
        expect_true("atpg proof-vs-random=" + std::to_string(t),
                    ref_.detect_scan_test(state, seq, &proven).count() == 0,
                    "random test detects a SAT-proven-untestable fault");
      }
    }

    // End-to-end --atpg=auto law: the comb generator under the Auto
    // backend leaves no fault unresolved and accounts for every class.
    if (cfg_->atpg == AtpgCheck::Auto && stuck && !cut()) {
      atpg::CombTestSetOptions copt;
      copt.podem.scan_mask = w_->scan_mask;
      copt.backend = atpg::AtpgBackend::Auto;
      copt.sat.conflict_limit = 0;
      copt.cancel = watchdog_;
      const atpg::CombTestSet comb =
          atpg::generate_comb_test_set(w_->circuit, w_->faults, copt);
      if (!cut()) {
        expect_true("atpg auto aborts", comb.aborted == 0,
                    "auto backend left aborted faults");
        expect_true("atpg auto accounting",
                    comb.detected.count() + comb.proven_untestable ==
                        w_->faults.num_classes(),
                    "auto backend class accounting broken");
        expect_true("atpg auto untestable-set",
                    comb.untestable.count() == comb.proven_untestable,
                    "untestable set disagrees with its count");
      }
    }
  }

  /// A Detected stuck-at cube, random-filled respecting the scan mask,
  /// must detect its fault as a single-frame scan test.
  void confirm_comb_cube(const std::string& where, FaultClassId id,
                         const atpg::TestCube& cube, util::Rng& rng) {
    sim::Vector3 state = cube.state;
    sim::Vector3 inputs = cube.inputs;
    sim::randomize_x(inputs, rng);
    for (std::size_t b = 0; b < state.size(); ++b) {
      if (!w_->scan_mask.test(b)) {
        state[b] = V3::X;  // unscanned: unknowable at test start
      } else if (state[b] == V3::X) {
        state[b] = sim::v3_from_bool(rng.coin());
      }
    }
    Sequence seq;
    seq.frames.push_back(inputs);
    FaultSet one(w_->faults.num_classes());
    one.set(id);
    expect_true(where, ref_.detect_scan_test(state, seq, &one).test(id),
                "SAT test cube fails to detect its fault");
  }

  /// Same confirmation for a two-frame transition-delay test.
  void confirm_transition_test(const std::string& where, FaultClassId id,
                               const atpg::TransitionTest& t,
                               util::Rng& rng) {
    sim::Vector3 state = t.state;
    for (std::size_t b = 0; b < state.size(); ++b) {
      if (!w_->scan_mask.test(b)) {
        state[b] = V3::X;
      } else if (state[b] == V3::X) {
        state[b] = sim::v3_from_bool(rng.coin());
      }
    }
    Sequence seq = t.seq;
    for (Vector3& frame : seq.frames) sim::randomize_x(frame, rng);
    FaultSet one(w_->faults.num_classes());
    one.set(id);
    expect_true(where, ref_.detect_scan_test(state, seq, &one).test(id),
                "SAT transition test fails to detect its fault");
  }

  void check_no_scan() {
    const FaultSet base = ref_.detect_no_scan(w_->no_scan_seq, &targets_);
    for_each_config([&](const char* name, FaultSimulator& s) {
      expect_sets_equal(std::string("no_scan cfg=") + name, base,
                        s.detect_no_scan(w_->no_scan_seq, &targets_));
    });
    if (cfg_->run_oracle) {
      std::size_t checked = 0;
      targets_.for_each([&](std::size_t i) {
        if (checked >= cfg_->oracle_fault_cap || cut()) return;
        ++checked;
        const auto f = static_cast<FaultClassId>(i);
        const OracleResult o = oracle_run(
            w_->circuit, w_->scan_mask, w_->faults.model(),
            w_->faults.representative(f), nullptr, w_->no_scan_seq,
            /*observe_scan_out=*/false);
        expect_true("no_scan oracle class=" + std::to_string(i),
                    o.detected == base.test(f),
                    "oracle disagrees on no-scan detection");
      });
    }
    no_scan_base_ = base;
  }

  void check_batch() {
    // Pattern-parallel batch queries against the per-test scalar
    // answers, at every distinct lane width: W64 exercises the per-test
    // fallback inside detect_batch, the wide widths the
    // packed PPSFP engine (intrinsic where the CPU has it, portable
    // wide words otherwise — both must be bit-identical).
    if (w_->tests.empty()) return;
    std::vector<FaultSimulator::BatchTest> batch(w_->tests.size());
    std::vector<FaultSet> base;
    base.reserve(batch.size());
    for (std::size_t i = 0; i < w_->tests.size(); ++i) {
      const tcomp::ScanTest& t = w_->tests[i];
      batch[i] = {&t.scan_in, &t.seq};
      base.push_back(ref_.detect_scan_test(t.scan_in, t.seq, &targets_));
    }

    // Ragged no-scan batch: the full sequence, a prefix, and an empty
    // sequence share one pass (no-scan tests pack like scan tests, with
    // lanes of different lengths going idle at different frames).
    std::vector<Sequence> ns_seqs;
    ns_seqs.push_back(w_->no_scan_seq);
    if (w_->no_scan_seq.length() >= 2) {
      ns_seqs.push_back(
          w_->no_scan_seq.subsequence(0, w_->no_scan_seq.length() / 2 - 1));
    }
    ns_seqs.emplace_back();
    std::vector<FaultSimulator::BatchTest> ns_batch(ns_seqs.size());
    std::vector<FaultSet> ns_base;
    ns_base.reserve(ns_seqs.size());
    for (std::size_t i = 0; i < ns_seqs.size(); ++i) {
      ns_batch[i] = {nullptr, &ns_seqs[i]};
      ns_base.push_back(ref_.detect_no_scan(ns_seqs[i], &targets_));
    }

    std::vector<sim::LaneWidth> widths = {
        sim::LaneWidth::W64, sim::LaneWidth::W256, sim::LaneWidth::W512};
    bool dup = false;
    for (const sim::LaneWidth lw : widths) {
      dup = dup || sim::resolve_simd(lw) == sim::resolve_simd(cfg_->lane_width);
    }
    if (!dup) widths.push_back(cfg_->lane_width);

    for (const sim::LaneWidth lw : widths) {
      if (cut()) return;
      FaultSimulator s(w_->circuit, w_->faults, w_->scan_mask);
      s.set_lane_width(lw);
      const std::string where =
          std::string("batch lw=") + sim::lane_width_name(lw);
      const std::vector<FaultSet> det = s.detect_batch(batch, &targets_);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        expect_sets_equal(where + " detect test=" + std::to_string(i),
                          base[i], det[i]);
      }
      if (cut()) return;
      const std::vector<FaultSet> nsd = s.detect_batch(ns_batch, &targets_);
      for (std::size_t i = 0; i < ns_batch.size(); ++i) {
        expect_sets_equal(where + " no_scan test=" + std::to_string(i),
                          ns_base[i], nsd[i]);
      }
    }
  }

  void check_detects_all_batch() {
    // A window of coverage checks shaped like the Phase 4 combiner's:
    // mixed lengths (prefixes, whole tests, concatenated pairs),
    // required sets spanning 1-3 fault groups that the trial's test
    // detects entirely or misses by one, and duplicates.  Entry k must
    // equal the reference detects_all on trial k in every configuration
    // (W64 runs the per-trial path, wide lanes the lane-batched pass).
    const std::size_t nt = w_->tests.size();
    if (nt == 0) return;
    util::Rng rng(w_->seed * 0x9e3779b97f4a7c15ULL + 3);
    const std::size_t n = 3 * nt + 2;
    std::vector<Sequence> seqs;
    std::vector<FaultSet> required;
    seqs.reserve(n);
    required.reserve(n);
    std::vector<FaultSimulator::Trial> trials;
    std::vector<bool> want;
    for (std::size_t k = 0; k < n; ++k) {
      if (k % 4 == 3) {  // a duplicate of an earlier trial
        const std::size_t d = rng.below(k);
        trials.push_back(trials[d]);
        want.push_back(want[d]);
        continue;
      }
      const tcomp::ScanTest& a = w_->tests[rng.below(nt)];
      const Sequence& b = w_->tests[rng.below(nt)].seq;
      const std::size_t len = a.seq.length();
      const std::uint64_t shape = rng.below(3);
      seqs.push_back(shape == 0 || len == 0 ? a.seq
                     : shape == 1           ? a.seq.subsequence(
                                                  0, rng.below(len))
                                            : a.seq.concatenated(b));
      const FaultSet det =
          ref_.detect_scan_test(a.scan_in, seqs.back(), &targets_);
      // About 1-3 groups' worth of the detected classes ...
      const std::size_t quota = (1 + rng.below(3)) * fault::kGroupSize;
      const std::size_t have = det.count();
      FaultSet r(det.size());
      det.for_each([&](std::size_t f) {
        if (have <= quota || rng.below(have) < quota) r.set(f);
      });
      // ... and, half the time, one target the trial misses.
      if (rng.below(2) == 0) {
        const FaultSet missed = targets_ - det;
        std::size_t pick = missed.none() ? 0 : rng.below(missed.count());
        missed.for_each([&](std::size_t f) {
          if (pick-- == 0) r.set(f);
        });
      }
      required.push_back(std::move(r));
      trials.push_back({&a.scan_in, &seqs.back(), &required.back()});
      want.push_back(ref_.detects_all(a.scan_in, seqs.back(),
                                      required.back()));
    }
    for_each_config([&](const char* name, FaultSimulator& s) {
      const std::vector<bool> got = s.detects_all_batch(trials);
      for (std::size_t k = 0; k < trials.size(); ++k) {
        expect_true("detects_all_batch cfg=" + std::string(name) +
                        " trial=" + std::to_string(k),
                    got[k] == want[k],
                    "detects_all_batch disagrees with detects_all");
      }
    });
  }

  void check_session_resume() {
    // An interrupted-and-restored session must re-derive exactly what
    // the uninterrupted run derives (resume == uninterrupted), and both
    // must equal the one-shot detect_no_scan answer.  Every
    // configuration's session must step exactly as the reference's: the
    // same new detections and latched effects per step (transition
    // sessions pack the launching groups lanes() per frame).
    const Sequence& seq = w_->no_scan_seq;
    const auto trail = [&](FaultSimulator& sim, FaultSet& detected) {
      std::vector<std::size_t> out;
      FaultSimulator::Session session(sim, targets_);
      for (const Vector3& pi : seq.frames) {
        out.push_back(session.step(pi));
        out.push_back(session.latched_effects());
      }
      detected = session.detected();
      return out;
    };
    FaultSet straight;
    const std::vector<std::size_t> want = trail(ref_, straight);
    expect_sets_equal("session straight", no_scan_base_, straight);
    for_each_config([&](const char* name, FaultSimulator& sim) {
      FaultSet detected;
      const bool same = trail(sim, detected) == want;
      expect_true(std::string(name) + " session steps", same,
                  "per-step detections or latched effects differ");
      expect_sets_equal(std::string(name) + " session", straight, detected);
    });

    if (seq.length() < 2) return;
    const std::size_t cut = seq.length() / 2;
    FaultSimulator::Session s(ref_, targets_);
    for (std::size_t t = 0; t < cut; ++t) s.step(seq.frames[t]);
    const auto snap = s.snapshot();
    for (std::size_t t = cut; t < seq.length(); ++t) s.step(seq.frames[t]);
    const FaultSet first = s.detected();
    s.restore(snap);
    for (std::size_t t = cut; t < seq.length(); ++t) s.step(seq.frames[t]);
    expect_sets_equal("session resume", first, s.detected());
    expect_sets_equal("session resume vs no_scan", no_scan_base_, first);
  }

  void check_cycles() {
    tcomp::ScanTestSet set;
    set.tests = w_->tests;
    const std::size_t nsv[] = {ref_.num_scanned(),
                               w_->circuit.num_flip_flops()};
    for (const std::size_t n : nsv) {
      for (const std::size_t chains : {std::size_t{0}, std::size_t{1},
                                       std::size_t{2}, std::size_t{3},
                                       std::size_t{7}}) {
        // First-principles recomputation of the paper's formula:
        // (k+1) scan operations of ceil(N_SV/chains) cycles each plus
        // one functional cycle per applied vector; an empty set is free.
        std::uint64_t want = 0;
        if (!set.empty()) {
          const std::size_t shift =
              chains <= 1 ? n : (n + chains - 1) / chains;
          want = (static_cast<std::uint64_t>(set.size()) + 1) * shift;
          for (const tcomp::ScanTest& t : set.tests) {
            want += t.seq.length();
          }
        }
        const std::uint64_t got =
            chains == 1 ? tcomp::clock_cycles(set, n)
                        : tcomp::clock_cycles(set, n, chains);
        expect_true("n_cyc nsv=" + std::to_string(n) +
                        " chains=" + std::to_string(chains),
                    got == want, "clock_cycles mismatch");
      }
    }
  }

  const Workload* w_;
  const CheckConfig* cfg_;
  FaultSet targets_;
  FaultSimulator ref_;
  util::CancelToken watchdog_;  ///< inert unless max_case_seconds > 0
  std::vector<Config> configs_;
  std::vector<std::unique_ptr<FaultSimulator>> shared_;
  FaultSet no_scan_base_;
  CaseReport report_;
};

}  // namespace

CaseReport check_case(const Workload& w, const CheckConfig& cfg) {
  CaseChecker checker(w, cfg);
  return checker.run();
}

}  // namespace scanc::check
