// Golden results: pins every CircuitRun field (except wall-clock
// seconds) of the paper's whole flow on the fast suite subset, under
// both fault models, against a checked-in record file.  Any behaviour
// change then shows up as a reviewed diff of tests/golden/circuit_runs.txt.
//
// Records are produced with expt::run_circuit on default options (seed
// 1, no cache), whose simulator runs the default (auto) lane width:
// stuck-at detect queries take the wide fault-parallel pass there.  The
// w64 cases re-run three circuits on a 64-bit-lane simulator, where
// every query takes the one-lane group pass, and check them against the
// same records: every lane width must reproduce the default's bits.
//
// Regenerate the file after an intended behaviour change with
//   golden_test --bless
// which runs every record serially and rewrites the file in place.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "expt/runner.hpp"
#include "fault/fault_sim.hpp"
#include "gen/suite.hpp"
#include "sim/simd.hpp"

#ifndef SCANC_GOLDEN_FILE
#error "SCANC_GOLDEN_FILE must name the golden record file"
#endif

namespace scanc::expt {
namespace {

using fault::FaultModelKind;
using sim::LaneWidth;

constexpr const char* kCircuits[] = {"s298", "s344", "s382", "s400",
                                     "s526", "b01",  "b02",  "b03",
                                     "b06",  "b09",  "b10"};
constexpr const char* kW64Circuits[] = {"b01", "s298", "b10"};

struct Case {
  std::string circuit;
  FaultModelKind model;
  LaneWidth lanes;
};

const char* model_name(FaultModelKind m) {
  return m == FaultModelKind::StuckAt ? "stuck" : "transition";
}

const char* lanes_name(LaneWidth w) {
  return w == LaneWidth::Auto ? "auto" : "w64";
}

/// Record key: one per (circuit, fault model); the lane width is not
/// part of it because every width must produce the same record.
std::string record_key(const Case& c) {
  return c.circuit + "/" + model_name(c.model);
}

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.circuit << "/" << model_name(c.model) << "/"
      << lanes_name(c.lanes);
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

CircuitRun run_case(const Case& c) {
  const auto entry = gen::find_suite_entry(c.circuit);
  if (!entry) throw std::runtime_error("unknown suite circuit " + c.circuit);
  RunnerOptions opt;
  opt.cache_path.clear();  // no cache, no journal: always a fresh run
  opt.seed = 1;
  opt.fault_model = c.model;
  if (c.lanes == LaneWidth::Auto) return run_circuit(*entry, opt);
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
  return run_circuit(*entry, opt);
}

/// Golden records by key; an unreadable file yields an empty map (every
/// case then fails with "no golden record").
std::map<std::string, std::string> load_golden() {
  std::map<std::string, std::string> out;
  std::ifstream in(SCANC_GOLDEN_FILE);
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

class GoldenResults : public ::testing::TestWithParam<Case> {};

TEST_P(GoldenResults, MatchesRecord) {
  const Case& c = GetParam();
  const auto golden = load_golden();
  const auto it = golden.find(record_key(c));
  ASSERT_NE(it, golden.end())
      << "no golden record for " << record_key(c) << " in "
      << SCANC_GOLDEN_FILE << " (regenerate with golden_test --bless)";
  const auto want = parse_fields(it->second);
  const CircuitRun run = run_case(c);
  const auto got = parse_fields(record_line(record_key(c), run));
  for (const auto& [name, value] : got) {
    const auto w = want.find(name);
    ASSERT_NE(w, want.end()) << "golden record lacks field " << name;
    EXPECT_EQ(value, w->second)
        << record_key(c) << " lanes=" << lanes_name(c.lanes) << " field "
        << name;
  }
  EXPECT_EQ(got.size(), want.size()) << "field sets differ";
}

INSTANTIATE_TEST_SUITE_P(
    Suite, GoldenResults, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.circuit + "_" + model_name(info.param.model) + "_" +
             lanes_name(info.param.lanes);
    });

/// --bless: regenerate the record file from the default-lane cases.
int bless() {
  std::ofstream out(SCANC_GOLDEN_FILE);
  if (!out) {
    std::cerr << "cannot write " << SCANC_GOLDEN_FILE << "\n";
    return 1;
  }
  out << "# Golden CircuitRun records (all fields but seconds): seed 1,\n"
         "# default options, no cache.  Regenerate: golden_test --bless\n";
  for (const Case& c : all_cases()) {
    if (c.lanes != LaneWidth::Auto) continue;
    out << record_line(record_key(c), run_case(c)) << "\n";
    std::cerr << "blessed " << record_key(c) << "\n";
  }
  return out ? 0 : 1;
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
