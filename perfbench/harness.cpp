// perfbench_harness — the benchmark's calls into the program's public API.
//
//   perfbench_harness setup --circuit=NAME [--model=stuck|transition]
//                           [--reps=K]
//   perfbench_harness flow --circuit=NAME [--seed=N] [--atpg=podem|sat|auto]
//                          [--model=stuck|transition] [--trace=0|1]
//   perfbench_harness serve --socket=PATH --jobs=FILE [--connections=N]
//
// `setup` times K builds of a flow's inputs: the circuit, the fault list
// and the simulator.  `flow` builds them once and times the paper's whole
// flow (expt::run_circuit) on them, handed in through
// RunnerOptions::shared_inputs and RunnerOptions::simulator, with the
// result cache and journal off.  With --trace=1 every
// RunnerOptions::progress note is stamped with the host clock, the
// telemetry counters and the QueryNanos histogram;
// perfbench/benchlib.py turns those boundary records into spans.
//
// `serve` runs a closed loop of the jobs in FILE (a JSON array of submit
// specs) over N connections to a running scanc-serve and records, per
// job, the submit round trip, the submit-to-terminal latency, the state
// and the result.
//
// Each command prints one JSON object on stdout; run.py does the rest.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "expt/runner.hpp"
#include "fault/fault_sim.hpp"
#include "gen/suite.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "util/telemetry.hpp"

namespace {

using scanc::svc::Json;
namespace obs = scanc::obs;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `--key=value` lookup over argv; `fallback` when absent.
std::string arg(int argc, char** argv, const std::string& key,
                const std::string& fallback = "") {
  const std::string prefix = "--" + key + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

Json counters_json(const obs::CounterSnapshot& s) {
  Json arr = Json::array();
  for (const std::uint64_t v : s) arr.push_back(Json::integer(v));
  return arr;
}

Json histogram_json(const obs::HistogramData& h) {
  Json j = Json::object();
  j.set("count", Json::integer(h.count));
  j.set("sum_ns", Json::integer(h.sum));
  Json b = Json::array();
  for (const std::uint64_t v : h.buckets) b.push_back(Json::integer(v));
  j.set("buckets", std::move(b));
  return j;
}

/// One boundary record: host time since the flow started, the note that
/// opened the next span ("" for the end of the flow), and the cumulative
/// counters and query histogram at that instant.
Json boundary(double t, const char* note) {
  Json j = Json::object();
  j.set("t", Json::number(t));
  j.set("note", Json::string(note));
  j.set("counters", counters_json(obs::snapshot_counters()));
  j.set("query_hist",
        histogram_json(obs::histogram(obs::Histogram::QueryNanos)));
  return j;
}

/// A flow's inputs: what RunnerOptions::shared_inputs and
/// RunnerOptions::simulator hand to run_circuit.
struct FlowInputs {
  std::shared_ptr<const scanc::netlist::Circuit> circuit;
  std::shared_ptr<const scanc::fault::FaultList> faults;
  std::unique_ptr<scanc::fault::FaultSimulator> fsim;
};

FlowInputs build_inputs(const scanc::gen::SuiteEntry& entry,
                        scanc::fault::FaultModelKind model) {
  FlowInputs in;
  in.circuit = std::make_shared<const scanc::netlist::Circuit>(
      scanc::gen::build_suite_circuit(entry));
  in.faults = std::make_shared<const scanc::fault::FaultList>(
      scanc::fault::FaultList::build(*in.circuit,
                                     scanc::fault::FaultModel::get(model)));
  in.fsim = std::make_unique<scanc::fault::FaultSimulator>(*in.circuit,
                                                           *in.faults);
  return in;
}

/// --circuit and --model; false (after a message) when either is bad.
bool parse_target(int argc, char** argv,
                  std::optional<scanc::gen::SuiteEntry>& entry,
                  scanc::fault::FaultModelKind& model) {
  entry = scanc::gen::find_suite_entry(arg(argc, argv, "circuit"));
  if (!entry) {
    std::cerr << "perfbench_harness: unknown --circuit\n";
    return false;
  }
  const std::string name = arg(argc, argv, "model", "stuck");
  if (name == "transition") {
    model = scanc::fault::FaultModelKind::Transition;
  } else if (name == "stuck") {
    model = scanc::fault::FaultModelKind::StuckAt;
  } else {
    std::cerr << "perfbench_harness: --model must be stuck or transition\n";
    return false;
  }
  return true;
}

int run_setup(int argc, char** argv) {
  std::optional<scanc::gen::SuiteEntry> entry;
  scanc::fault::FaultModelKind model{};
  if (!parse_target(argc, argv, entry, model)) return 2;
  const int reps = std::max(1, std::stoi(arg(argc, argv, "reps", "1")));
  Json setup = Json::array();
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    const FlowInputs in = build_inputs(*entry, model);
    setup.push_back(Json::number(now_s() - t0));
  }
  Json out = Json::object();
  out.set("setup_s", std::move(setup));
  std::cout << out.dump() << "\n";
  return 0;
}

int run_flow(int argc, char** argv) {
  scanc::expt::RunnerOptions opt;
  std::optional<scanc::gen::SuiteEntry> entry;
  if (!parse_target(argc, argv, entry, opt.fault_model)) return 2;
  opt.seed = std::stoull(arg(argc, argv, "seed", "1"));
  opt.cache_path.clear();  // neither the result cache nor the journal
  const std::string atpg = arg(argc, argv, "atpg", "podem");
  if (atpg == "auto") {
    opt.atpg = scanc::atpg::AtpgBackend::Auto;
  } else if (atpg == "sat") {
    opt.atpg = scanc::atpg::AtpgBackend::Sat;
  } else if (atpg != "podem") {
    std::cerr << "perfbench_harness: --atpg must be podem, sat or auto\n";
    return 2;
  }
  const bool trace = arg(argc, argv, "trace", "0") == "1";

  const FlowInputs in = build_inputs(*entry, opt.fault_model);
  opt.shared_inputs = [&in](const scanc::gen::SuiteEntry&,
                            scanc::fault::FaultModelKind) {
    return scanc::expt::SharedInputs{in.circuit, in.faults};
  };
  opt.simulator = in.fsim.get();

  Json events = Json::array();
  double start = 0.0;
  if (trace) {
    opt.progress = [&](const char* note) {
      events.push_back(boundary(now_s() - start, note));
    };
  }
  const obs::CounterSnapshot before = obs::snapshot_counters();
  if (trace) events.push_back(boundary(0.0, "flow"));
  start = now_s();
  const scanc::expt::CircuitRun run = scanc::expt::run_circuit(*entry, opt);
  const double wall = now_s() - start;
  if (trace) events.push_back(boundary(wall, ""));
  const obs::CounterSnapshot after = obs::snapshot_counters();

  Json names = Json::array();
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    names.push_back(
        Json::string(obs::counter_name(static_cast<obs::Counter>(i))));
  }
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);

  Json out = Json::object();
  out.set("circuit", Json::string(run.name));
  out.set("wall_s", Json::number(wall));
  out.set("maxrss_kb",
          Json::integer(static_cast<std::uint64_t>(ru.ru_maxrss)));
  out.set("record", Json::string(scanc::expt::serialize_run(run)));
  out.set("counter_names", std::move(names));
  out.set("counters", counters_json(obs::counter_delta(after, before)));
  if (trace) out.set("events", std::move(events));
  std::cout << out.dump() << "\n";
  return 0;
}

struct JobRecord {
  std::string id;
  std::size_t conn = 0;     ///< connection (client thread) that ran it
  std::string state = "lost";
  double submitted = 0.0;   ///< host time the submit request was sent
  double acked = 0.0;       ///< host time the submit reply arrived
  double terminal = 0.0;    ///< host time the terminal state was seen
  std::string result;       ///< result object (Done jobs), as JSON text
  std::string error;        ///< error message (Failed jobs)
};

void serve_loop(const std::string& socket, std::size_t conn,
                const std::vector<Json>& specs, std::atomic<std::size_t>& next,
                std::vector<JobRecord>& records) {
  scanc::svc::Client client;
  client.connect(socket, 10.0);
  for (std::size_t i = next++; i < specs.size(); i = next++) {
    JobRecord& r = records[i];
    r.id = specs[i].find("id")->as_string();
    r.conn = conn;
    r.submitted = now_s();
    const Json ack = client.submit_raw(specs[i], 30.0);
    r.acked = now_s();
    const Json* accepted = ack.find("accepted");
    if (accepted == nullptr || !accepted->is_bool() || !accepted->as_bool()) {
      r.state = "rejected";
      r.terminal = r.acked;
      continue;
    }
    for (int polls = 0; polls < 60; ++polls) {
      const Json resp = client.wait(r.id, 10.0);
      const Json* job = resp.find("job");
      if (job == nullptr) break;
      const Json* state_field = job->find("state");
      if (state_field == nullptr) break;
      const std::string state = state_field->as_string();
      if (state == "queued" || state == "running") continue;
      r.terminal = now_s();
      r.state = state;
      if (const Json* result = job->find("result")) r.result = result->dump();
      if (const Json* error = job->find("error")) r.error = error->as_string();
      break;
    }
  }
}

int run_serve(int argc, char** argv) {
  const std::string socket = arg(argc, argv, "socket");
  std::ifstream in(arg(argc, argv, "jobs"));
  std::stringstream text;
  text << in.rdbuf();
  const std::vector<Json> specs = Json::parse(text.str()).items();
  const std::size_t connections =
      std::max(1, std::stoi(arg(argc, argv, "connections", "2")));

  // The first connection waits for the daemon to come up and pings it.
  {
    scanc::svc::Client probe;
    probe.connect(socket, 30.0);
    if (!probe.ping()) {
      std::cerr << "perfbench_harness: daemon did not answer ping\n";
      return 1;
    }
  }
  scanc::svc::Client stats_client;
  stats_client.connect(socket, 10.0);
  const Json stats_before = stats_client.stats();

  std::vector<JobRecord> records(specs.size());
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::string error;
  const double start = now_s();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      try {
        serve_loop(socket, c, specs, next, records);
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = now_s() - start;
  const Json stats_after = stats_client.stats();
  if (!error.empty()) {
    std::cerr << "perfbench_harness: client error: " << error << "\n";
    return 1;
  }

  Json jobs = Json::array();
  for (const JobRecord& r : records) {
    Json j = Json::object();
    j.set("id", Json::string(r.id));
    j.set("conn", Json::integer(r.conn));
    j.set("state", Json::string(r.state));
    j.set("submitted", Json::number(r.submitted - start));
    j.set("acked", Json::number(r.acked - start));
    j.set("terminal", Json::number(r.terminal - start));
    if (!r.result.empty()) j.set("result", Json::parse(r.result));
    if (!r.error.empty()) j.set("error", Json::string(r.error));
    jobs.push_back(std::move(j));
  }
  Json out = Json::object();
  out.set("wall_s", Json::number(wall));
  out.set("jobs", std::move(jobs));
  out.set("stats_before", stats_before);
  out.set("stats_after", stats_after);
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  try {
    if (cmd == "setup") return run_setup(argc, argv);
    if (cmd == "flow") return run_flow(argc, argv);
    if (cmd == "serve") return run_serve(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "usage: perfbench_harness setup|flow|serve --key=value...\n";
  return 2;
}
