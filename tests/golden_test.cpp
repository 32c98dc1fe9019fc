// Golden results: pins every CircuitRun field (except wall-clock
// seconds) of the paper's whole flow on the fast suite subset, under
// both fault models, against a checked-in record file.  Any behaviour
// change then shows up as a reviewed diff of tests/golden/circuit_runs.txt.
//
// Records are produced with expt::run_circuit on default options (seed
// 1, one thread, no cache), whose simulator runs the default (auto) lane
// width: stuck-at detect queries take the wide fault-parallel pass
// there.  The w64 cases re-run three circuits on a 64-bit-lane
// simulator, where every query takes the one-lane group pass, and the
// t4 cases re-run three circuits on four threads; both check against
// the same records: every lane width and thread count must reproduce
// the default's bits.
//
// Work counters: each default run's counter delta (every counter but
// the timing-dependent pool_* ones) is pinned exactly in
// tests/golden/work_counters.txt, so a change in the work the flow does
// (queries, groups, passes, frames, SAT calls) is a reviewed diff too.
// The batch and chunk counts follow the lane count, and the default
// width resolves to 8 lanes on AVX-512 hosts but 4 on AVX2 and portable
// builds, for the runner's simulator and the ones comb ATPG and T0
// generation build alike; so each counter record is keyed by that lane
// count and the file holds one set per count.  The t4 cases skip the
// counters that depend on the thread count (kThreadDependent):
// detects_all's cooperative early exit makes the frame and pass counts
// of a multi-threaded query race-dependent, though never its answer
// (docs/observability.md).
//
// Regenerate both files after an intended change with
//   golden_test --bless
// which runs every default case serially and rewrites circuit_runs.txt
// and this build's lane-count set in work_counters.txt, keeping the
// other sets.  On an AVX-512 host, bless in a default build (8 lanes)
// and in a -DSCANC_FORCE_SCALAR_WIDE=ON build (4 lanes) to renew both.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "expt/runner.hpp"
#include "fault/fault_sim.hpp"
#include "gen/suite.hpp"
#include "sim/simd.hpp"
#include "util/telemetry.hpp"

#ifndef SCANC_GOLDEN_FILE
#error "SCANC_GOLDEN_FILE must name the golden record file"
#endif
#ifndef SCANC_GOLDEN_COUNTERS_FILE
#error "SCANC_GOLDEN_COUNTERS_FILE must name the work-counter record file"
#endif

namespace scanc::expt {
namespace {

using fault::FaultModelKind;
using sim::LaneWidth;

constexpr const char* kCircuits[] = {"s298", "s344", "s382", "s400",
                                     "s526", "b01",  "b02",  "b03",
                                     "b06",  "b09",  "b10"};
constexpr const char* kW64Circuits[] = {"b01", "s298", "b10"};
constexpr const char* kThreadedCircuits[] = {"b01", "s298", "b10"};
constexpr std::size_t kThreads = 4;

/// Counters whose totals depend on thread timing: the pool_* timings,
/// and the frame and pass counts that detects_all's cooperative early
/// exit leaves race-dependent on more than one thread (a wide chunk that
/// starts after another failed skips its pass).  Repeated 1- and
/// 4-thread runs, idle and under load, agree on every other counter.
constexpr obs::Counter kTimingDependent[] = {
    obs::Counter::PoolTasksRun, obs::Counter::PoolQueueWaitNanos,
    obs::Counter::PoolBusyNanos};
constexpr obs::Counter kThreadDependent[] = {
    obs::Counter::FramesSimulated, obs::Counter::FullPasses,
    obs::Counter::WideFpPasses, obs::Counter::TdfActivations,
    obs::Counter::TdfFramesSkipped};

struct Case {
  std::string circuit;
  FaultModelKind model;
  LaneWidth lanes;
  std::size_t threads = 1;
};

const char* model_name(FaultModelKind m) {
  return m == FaultModelKind::StuckAt ? "stuck" : "transition";
}

const char* lanes_name(LaneWidth w) {
  return w == LaneWidth::Auto ? "auto" : "w64";
}

/// The default-lane, one-thread case: the one the files record.
bool is_default(const Case& c) {
  return c.lanes == LaneWidth::Auto && c.threads == 1;
}

/// How many 64-bit lanes the default width resolves to in this build on
/// this host: the work-counter records are kept per lane count.
std::size_t default_lanes() {
  return sim::resolve_simd(LaneWidth::Auto).lanes();
}

/// Record key: one per (circuit, fault model); the lane width and thread
/// count are not part of it because every case must produce the same
/// record.
std::string record_key(const Case& c) {
  return c.circuit + "/" + model_name(c.model);
}

/// Work-counter record key: the record key plus a lane count (by
/// default this build's), e.g. `s298/stuck/l8`.
std::string counter_key(const Case& c, std::size_t lanes = default_lanes()) {
  return record_key(c) + "/l" + std::to_string(lanes);
}

std::string case_name(const Case& c) {
  std::string name =
      c.circuit + "_" + model_name(c.model) + "_" + lanes_name(c.lanes);
  if (c.threads != 1) name += "_t" + std::to_string(c.threads);
  return name;
}

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.circuit << "/" << model_name(c.model) << "/"
      << lanes_name(c.lanes);
  if (c.threads != 1) *os << "/t" << c.threads;
}

std::vector<Case> all_cases() {
  std::vector<Case> out;
  for (const FaultModelKind m :
       {FaultModelKind::StuckAt, FaultModelKind::Transition}) {
    for (const char* name : kCircuits) {
      out.push_back({name, m, LaneWidth::Auto});
    }
    for (const char* name : kW64Circuits) {
      out.push_back({name, m, LaneWidth::W64});
    }
    for (const char* name : kThreadedCircuits) {
      out.push_back({name, m, LaneWidth::Auto, kThreads});
    }
  }
  return out;
}

/// Counters a case checks: all but the timing-dependent ones on a
/// default case, the thread-invariant ones on a threaded case, none on
/// w64.
std::vector<obs::Counter> checked_counters(const Case& c) {
  if (c.lanes != LaneWidth::Auto) return {};
  const auto among = [](obs::Counter counter, const auto& list) {
    return std::find(std::begin(list), std::end(list), counter) !=
           std::end(list);
  };
  std::vector<obs::Counter> out;
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    const auto counter = static_cast<obs::Counter>(i);
    if (among(counter, kTimingDependent)) continue;
    if (c.threads != 1 && among(counter, kThreadDependent)) continue;
    out.push_back(counter);
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void add_variant(std::vector<std::pair<std::string, std::string>>& f,
                 const std::string& p, const VariantResult& v) {
  f.emplace_back(p + ".det_t0", std::to_string(v.det_t0));
  f.emplace_back(p + ".det_scan", std::to_string(v.det_scan));
  f.emplace_back(p + ".det_final", std::to_string(v.det_final));
  f.emplace_back(p + ".len_t0", std::to_string(v.len_t0));
  f.emplace_back(p + ".len_scan", std::to_string(v.len_scan));
  f.emplace_back(p + ".added", std::to_string(v.added));
  f.emplace_back(p + ".cyc_init", std::to_string(v.cyc_init));
  f.emplace_back(p + ".cyc_comp", std::to_string(v.cyc_comp));
  f.emplace_back(p + ".atspeed_ave", fmt(v.atspeed_ave));
  f.emplace_back(p + ".atspeed_min", std::to_string(v.atspeed_min));
  f.emplace_back(p + ".atspeed_max", std::to_string(v.atspeed_max));
  f.emplace_back(p + ".tests_final", std::to_string(v.tests_final));
  f.emplace_back(p + ".vectors_final", std::to_string(v.vectors_final));
}

/// Every CircuitRun field except `seconds`, in declaration order.
std::vector<std::pair<std::string, std::string>> fields(const CircuitRun& r) {
  std::vector<std::pair<std::string, std::string>> f;
  f.emplace_back("name", r.name);
  f.emplace_back("flip_flops", std::to_string(r.flip_flops));
  f.emplace_back("comb_tests", std::to_string(r.comb_tests));
  f.emplace_back("faults", std::to_string(r.faults));
  f.emplace_back("detectable", std::to_string(r.detectable));
  f.emplace_back("proven_untestable", std::to_string(r.proven_untestable));
  f.emplace_back("aborted", std::to_string(r.aborted));
  add_variant(f, "atpg", r.atpg);
  add_variant(f, "random", r.random);
  f.emplace_back("cyc_dyn", std::to_string(r.cyc_dyn));
  f.emplace_back("cyc_4_init", std::to_string(r.cyc_4_init));
  f.emplace_back("cyc_4_comp", std::to_string(r.cyc_4_comp));
  f.emplace_back("atspeed_ave_4", fmt(r.atspeed_ave_4));
  f.emplace_back("atspeed_min_4", std::to_string(r.atspeed_min_4));
  f.emplace_back("atspeed_max_4", std::to_string(r.atspeed_max_4));
  f.emplace_back("completed", r.completed ? "1" : "0");
  f.emplace_back("stopped_at", r.stopped_at);
  return f;
}

/// One record line: `<key> <field>=<value> ...`.
std::string record_line(const std::string& key, const CircuitRun& r) {
  std::string line = key;
  for (const auto& [name, value] : fields(r)) {
    line += " " + name + "=" + value;
  }
  return line;
}

/// One work-counter line: `<key> <counter>=<delta> ...`.
std::string counter_line(const Case& c, const obs::CounterSnapshot& work) {
  std::string line = counter_key(c);
  for (const obs::Counter counter : checked_counters(c)) {
    line += std::string(" ") + obs::counter_name(counter) + "=" +
            std::to_string(work[static_cast<std::size_t>(counter)]);
  }
  return line;
}

struct CaseResult {
  CircuitRun run;
  obs::CounterSnapshot work{};  ///< counter delta over the run
};

CaseResult run_case(const Case& c) {
  const auto entry = gen::find_suite_entry(c.circuit);
  if (!entry) throw std::runtime_error("unknown suite circuit " + c.circuit);
  RunnerOptions opt;
  opt.cache_path.clear();  // no cache, no journal: always a fresh run
  opt.seed = 1;
  opt.fault_model = c.model;
  opt.num_threads = c.threads;
  CaseResult out;
  const obs::CounterSnapshot before = obs::snapshot_counters();
  if (c.lanes == LaneWidth::Auto) {
    out.run = run_circuit(*entry, opt);
  } else {
    // Any other width needs a simulator built on the same circuit and
    // fault list the run uses.
    const auto circuit = std::make_shared<const netlist::Circuit>(
        gen::build_suite_circuit(*entry));
    const auto faults = std::make_shared<const fault::FaultList>(
        fault::FaultList::build(*circuit, fault::FaultModel::get(c.model)));
    fault::FaultSimulator fsim(*circuit, *faults);
    fsim.set_lane_width(c.lanes);
    opt.shared_inputs = [&](const gen::SuiteEntry&, FaultModelKind) {
      return SharedInputs{circuit, faults};
    };
    opt.simulator = &fsim;
    out.run = run_circuit(*entry, opt);
  }
  out.work = obs::counter_delta(obs::snapshot_counters(), before);
  return out;
}

/// Records by key; an unreadable file yields an empty map (every case
/// then fails with "no golden record").
std::map<std::string, std::string> load_records(const char* path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    out[line.substr(0, line.find(' '))] = line;
  }
  return out;
}

/// Splits a record line into field -> value (the key token is skipped).
std::map<std::string, std::string> parse_fields(const std::string& line) {
  std::map<std::string, std::string> out;
  std::istringstream in(line);
  std::string tok;
  in >> tok;  // key
  while (in >> tok) {
    const std::size_t eq = tok.find('=');
    out[tok.substr(0, eq)] = eq == std::string::npos ? "" : tok.substr(eq + 1);
  }
  return out;
}

/// Expects every field of `got_line` to equal the same field of the
/// record for `key` in `path`.  With `exact`, the field sets must match
/// too (a threaded case checks a subset of the recorded counters).
void expect_record(const char* path, const std::string& key,
                   const std::string& got_line, const std::string& what,
                   bool exact) {
  const auto golden = load_records(path);
  const auto it = golden.find(key);
  ASSERT_NE(it, golden.end())
      << "no golden record for " << key << " in " << path
      << " (regenerate with golden_test --bless)";
  const auto want = parse_fields(it->second);
  const auto got = parse_fields(got_line);
  for (const auto& [name, value] : got) {
    const auto w = want.find(name);
    ASSERT_NE(w, want.end()) << "golden record lacks field " << name;
    EXPECT_EQ(value, w->second) << what << " field " << name;
  }
  if (exact) {
    EXPECT_EQ(got.size(), want.size()) << "field sets differ";
  }
}

class GoldenResults : public ::testing::TestWithParam<Case> {};

TEST_P(GoldenResults, MatchesRecord) {
  const Case& c = GetParam();
  const CaseResult result = run_case(c);
  expect_record(SCANC_GOLDEN_FILE, record_key(c),
                record_line(record_key(c), result.run), case_name(c),
                /*exact=*/true);
  if (checked_counters(c).empty()) return;
  expect_record(SCANC_GOLDEN_COUNTERS_FILE, counter_key(c),
                counter_line(c, result.work),
                case_name(c) + " work counter", c.threads == 1);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, GoldenResults, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return case_name(info.param);
    });

/// --bless: regenerate circuit_runs.txt and this build's lane-count set
/// of work_counters.txt from the default cases, keeping the other sets.
int bless() {
  std::map<std::string, std::string> counter_lines =
      load_records(SCANC_GOLDEN_COUNTERS_FILE);
  std::set<std::size_t> lane_counts{default_lanes()};
  for (const auto& entry : counter_lines) {
    const std::string& key = entry.first;
    const std::size_t at = key.rfind("/l");
    if (at != std::string::npos) {
      lane_counts.insert(std::stoul(key.substr(at + 2)));
    }
  }
  std::ofstream records(SCANC_GOLDEN_FILE);
  if (!records) {
    std::cerr << "cannot write " << SCANC_GOLDEN_FILE << "\n";
    return 1;
  }
  records << "# Golden CircuitRun records (all fields but seconds): seed 1,\n"
             "# default options, no cache.  Regenerate: golden_test --bless\n";
  for (const Case& c : all_cases()) {
    if (!is_default(c)) continue;
    const CaseResult result = run_case(c);
    records << record_line(record_key(c), result.run) << "\n";
    counter_lines[counter_key(c)] = counter_line(c, result.work);
    std::cerr << "blessed " << record_key(c) << "\n";
  }
  std::ofstream counters(SCANC_GOLDEN_COUNTERS_FILE);
  if (!counters) {
    std::cerr << "cannot write " << SCANC_GOLDEN_COUNTERS_FILE << "\n";
    return 1;
  }
  counters << "# Golden work-counter deltas (all counters but pool_*): seed "
              "1,\n# default options, one thread, no cache; one set per "
              "default lane count\n# (key suffix /lN).  Regenerate: "
              "golden_test --bless\n";
  for (const std::size_t lanes : lane_counts) {
    for (const Case& c : all_cases()) {
      if (!is_default(c)) continue;
      const auto it = counter_lines.find(counter_key(c, lanes));
      if (it != counter_lines.end()) counters << it->second << "\n";
    }
  }
  return records && counters ? 0 : 1;
}

}  // namespace
}  // namespace scanc::expt

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--bless") return scanc::expt::bless();
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
