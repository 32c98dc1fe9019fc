// Compaction service tests: JSON codec, wire framing, spec validation,
// and the daemon itself — hostile clients, overload shedding, typed
// failures, deadline cuts, and drain/restart resume (bit-identical).
//
// Daemon tests run the service in-process (Daemon::run on a thread
// talking over a real AF_UNIX socket), so they exercise the same code
// paths as scanc-serve without process management.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/job.hpp"
#include "svc/json.hpp"
#include "svc/wire.hpp"
#include "util/cancel.hpp"
#include "util/store.hpp"

namespace scanc::svc {
namespace {

using util::CancelToken;
using util::Deadline;

// ---------------------------------------------------------------------
// JSON codec.

TEST(SvcJson, RoundTripsValues) {
  const char* cases[] = {
      "null",
      "true",
      "false",
      "0",
      "42",
      "18446744073709551615",  // u64 max, must stay exact
      "-1.5",
      "\"hello\"",
      "[]",
      "[1,2,3]",
      "{}",
      "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}",
  };
  for (const char* text : cases) {
    const Json parsed = Json::parse(text);
    EXPECT_EQ(Json::parse(parsed.dump()).dump(), parsed.dump()) << text;
  }
  EXPECT_EQ(Json::parse("18446744073709551615").as_u64(),
            18446744073709551615ULL);
}

TEST(SvcJson, DecodesEscapesAndSurrogatePairs) {
  EXPECT_EQ(Json::parse("\"\\u0041\\n\\t\\\"\\\\\"").as_string(),
            "A\n\t\"\\");
  // U+1F600 as a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(Json::parse("\"\\uD83D\\uDE00\"").as_string(),
            "\xF0\x9F\x98\x80");
}

TEST(SvcJson, RejectsMalformedInput) {
  const char* bad[] = {
      "",       "{",         "[1,]",     "{\"a\":}", "nul",
      "tru",    "1 2",       "{} extra", "\"unterminated",
      "\"\\uD83D\"",  // lone high surrogate
      "{\"a\" 1}",
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)Json::parse(text), JsonError) << text;
  }
  // Depth and size caps.
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += '[';
  for (int i = 0; i < 64; ++i) deep += ']';
  EXPECT_THROW((void)Json::parse(deep, 32), JsonError);
  EXPECT_THROW((void)Json::parse("[1,2,3]", 32, 4), JsonError);
}

// ---------------------------------------------------------------------
// Wire framing.

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(SvcWire, FrameRoundTrip) {
  SocketPair sp;
  const std::string msg = "{\"op\":\"ping\"}";
  write_frame(sp.a, msg, Deadline::after(1.0));
  std::string out;
  ASSERT_TRUE(read_frame(sp.b, out, Deadline::after(1.0)));
  EXPECT_EQ(out, msg);
  // Clean close -> EOF at the frame boundary, not an error.
  ::close(sp.a);
  sp.a = -1;
  EXPECT_FALSE(read_frame(sp.b, out, Deadline::after(1.0)));
}

TEST(SvcWire, RejectsOversizedLengthPrefix) {
  SocketPair sp;
  const unsigned char hdr[4] = {0x7F, 0xFF, 0xFF, 0xFF};  // ~2 GiB claim
  ASSERT_EQ(::send(sp.a, hdr, sizeof(hdr), 0), 4);
  std::string out;
  try {
    (void)read_frame(sp.b, out, Deadline::after(1.0));
    FAIL() << "oversized prefix accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.kind(), WireError::Kind::TooLarge);
  }
}

TEST(SvcWire, DetectsTruncatedFrame) {
  SocketPair sp;
  const unsigned char hdr[4] = {0, 0, 0, 100};  // promise 100 bytes...
  ASSERT_EQ(::send(sp.a, hdr, sizeof(hdr), 0), 4);
  ASSERT_EQ(::send(sp.a, "short", 5, 0), 5);  // ...deliver 5, hang up
  ::close(sp.a);
  sp.a = -1;
  std::string out;
  try {
    (void)read_frame(sp.b, out, Deadline::after(1.0));
    FAIL() << "truncated frame accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.kind(), WireError::Kind::Eof);
  }
}

// ---------------------------------------------------------------------
// Spec validation.

Json gen_obj(const std::string& name, std::size_t gates = 40,
             std::size_t flip_flops = 6) {
  Json g = Json::object();
  g.set("name", Json::string(name));
  g.set("inputs", Json::integer(4));
  g.set("outputs", Json::integer(4));
  g.set("flip_flops", Json::integer(flip_flops));
  g.set("gates", Json::integer(gates));
  g.set("seed", Json::integer(7));
  return g;
}

Json gen_spec(const std::string& id, std::size_t gates = 40,
              std::size_t t0 = 40, std::size_t flip_flops = 6) {
  Json s = Json::object();
  s.set("id", Json::string(id));
  s.set("kind", Json::string("gen"));
  s.set("gen", gen_obj("t-" + id, gates, flip_flops));
  s.set("t0_length", Json::integer(t0));
  return s;
}

TEST(SvcJob, SpecRoundTripsThroughJson) {
  const JobSpec spec = parse_job_spec(gen_spec("round-trip"));
  const JobSpec again = parse_job_spec(job_spec_json(spec));
  EXPECT_EQ(job_spec_json(again).dump(), job_spec_json(spec).dump());
  EXPECT_EQ(circuit_key(again), circuit_key(spec));
}

TEST(SvcJob, RejectsHostileSpecs) {
  const auto expect_bad = [](Json spec, const char* why) {
    try {
      (void)parse_job_spec(spec);
      FAIL() << why;
    } catch (const JobError& e) {
      EXPECT_EQ(e.kind(), JobErrorKind::BadRequest) << why;
    }
  };
  Json traversal = gen_spec("x");
  traversal.set("id", Json::string("../../etc/passwd"));
  expect_bad(std::move(traversal), "path-traversal id");

  Json unknown = gen_spec("x");
  unknown.set("bogus_knob", Json::integer(1));
  expect_bad(std::move(unknown), "unknown key");

  Json oversize = Json::object();
  oversize.set("id", Json::string("x"));
  oversize.set("kind", Json::string("gen"));
  Json g = gen_obj("t-x");
  g.set("gates", Json::integer(10'000'000));
  oversize.set("gen", std::move(g));
  expect_bad(std::move(oversize), "gates over cap");

  Json suite = Json::object();
  suite.set("id", Json::string("x"));
  suite.set("kind", Json::string("suite"));
  suite.set("circuit", Json::string("no-such-circuit"));
  try {
    (void)job_entry(parse_job_spec(suite));
    FAIL() << "unknown suite circuit";
  } catch (const JobError& e) {
    EXPECT_EQ(e.kind(), JobErrorKind::BadRequest);
  }
}

// ---------------------------------------------------------------------
// Daemon harness.

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/scanc_svc_XXXXXX";
    path = ::mkdtemp(tmpl);
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Runs Daemon::run on a thread; stop() drains and returns the open
/// (re-queued) job count.
class DaemonHarness {
 public:
  explicit DaemonHarness(DaemonOptions options)
      : shutdown_(CancelToken::make()), daemon_(std::move(options)) {
    thread_ = std::thread([this] { open_ = daemon_.run(shutdown_); });
  }
  ~DaemonHarness() {
    if (thread_.joinable()) stop();
  }

  std::size_t stop() {
    shutdown_.request_stop();
    thread_.join();
    return open_;
  }

 private:
  CancelToken shutdown_;
  Daemon daemon_;
  std::thread thread_;
  std::size_t open_ = 0;
};

DaemonOptions fast_options(const TempDir& dir, std::size_t executors = 2,
                           std::size_t max_queue = 8) {
  DaemonOptions opt;
  opt.socket_path = dir.path + "/s.sock";
  opt.state_dir = dir.path + "/state";
  std::filesystem::create_directories(opt.state_dir);
  opt.executors = executors;
  opt.max_queue = max_queue;
  opt.backoff_initial_seconds = 0.01;
  opt.backoff_max_seconds = 0.05;
  return opt;
}

std::string wait_state(Client& client, const std::string& id,
                       double seconds = 60.0) {
  const Json resp = client.wait(id, seconds);
  const Json* job = resp.find("job");
  if (job == nullptr) return "<no job>";
  return job->find("state")->as_string();
}

// ---------------------------------------------------------------------
// Daemon behavior.

// The watchdog reads its clock before taking the lock while executors
// stamp progress without it, so a stamp can be newer than `now`.  That
// job is alive: the stall test must saturate, not wrap around.
TEST(SvcWatchdog, StampLaterThanNowIsNeverStalled) {
  constexpr std::uint64_t kStall = 5'000'000'000ULL;
  EXPECT_FALSE(progress_stalled(1'000, 1'001, kStall));
  EXPECT_FALSE(progress_stalled(0, ~0ULL, kStall));
  EXPECT_FALSE(progress_stalled(1'000, 1'000, 0));
  EXPECT_FALSE(progress_stalled(kStall + 10, 10, kStall));  // exactly at bound
  EXPECT_TRUE(progress_stalled(kStall + 11, 10, kStall));
  EXPECT_TRUE(progress_stalled(~0ULL, 0, kStall));
}

TEST(SvcDaemon, SubmitWaitDoneAndIdempotentResubmit) {
  TempDir dir;
  DaemonOptions opt = fast_options(dir);
  const std::string socket = opt.socket_path;
  DaemonHarness harness(std::move(opt));

  Client client;
  client.connect(socket);
  EXPECT_TRUE(client.ping());

  const Json sub = client.submit_raw(gen_spec("j1"));
  EXPECT_TRUE(sub.find("accepted")->as_bool());
  EXPECT_EQ(wait_state(client, "j1"), "done");

  const Json status = client.status("j1");
  const Json* job = status.find("job");
  ASSERT_NE(job, nullptr);
  const Json* result = job->find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->find("faults")->as_u64(), 0u);

  // Same id again: idempotent, reports the existing (terminal) job.
  const Json again = client.submit_raw(gen_spec("j1"));
  EXPECT_TRUE(again.find("accepted")->as_bool());
  EXPECT_TRUE(again.find("existing")->as_bool());
  EXPECT_EQ(again.find("state")->as_string(), "done");

  // Unknown job id is a typed not_found, not a hang.
  const Json missing = client.status("nope");
  EXPECT_FALSE(missing.find("ok")->as_bool());
  EXPECT_EQ(missing.find("kind")->as_string(), "not_found");
}

TEST(SvcDaemon, HostileClientsCannotKillTheDaemon) {
  TempDir dir;
  DaemonOptions opt = fast_options(dir);
  const std::string socket = opt.socket_path;
  DaemonHarness harness(std::move(opt));

  {  // Garbage JSON in a well-formed frame: typed protocol error, and
     // the connection survives for the next request.
    Client client;
    client.connect(socket);
    write_frame(client.fd(), "this is not json", Deadline::after(1.0));
    std::string payload;
    ASSERT_TRUE(read_frame(client.fd(), payload, Deadline::after(5.0)));
    const Json resp = Json::parse(payload);
    EXPECT_FALSE(resp.find("ok")->as_bool());
    EXPECT_EQ(resp.find("kind")->as_string(), "protocol");
    EXPECT_TRUE(client.ping());
  }
  {  // `watch` and `events`, verbs of older daemons, are unknown ops
     // like any other: a typed protocol error, and the connection
     // survives.
    Client client;
    client.connect(socket);
    for (const char* req :
         {R"({"op":"watch","id":"*"})", R"({"op":"events","id":"x"})"}) {
      const Json resp = client.request(Json::parse(req));
      EXPECT_FALSE(resp.find("ok")->as_bool()) << req;
      EXPECT_EQ(resp.find("kind")->as_string(), "protocol") << req;
      EXPECT_NE(resp.find("error")->as_string().find("unknown op"),
                std::string::npos)
          << req;
      EXPECT_TRUE(client.ping()) << req;
    }
  }
  {  // Oversized length prefix: the daemon reports and closes.
    Client client;
    client.connect(socket);
    const unsigned char hdr[4] = {0x7F, 0xFF, 0xFF, 0xFF};
    ASSERT_EQ(::send(client.fd(), hdr, sizeof(hdr), MSG_NOSIGNAL), 4);
    std::string payload;
    try {
      if (read_frame(client.fd(), payload, Deadline::after(5.0))) {
        EXPECT_FALSE(Json::parse(payload).find("ok")->as_bool());
      }
    } catch (const WireError&) {
      // Server may close before the error frame is readable; fine.
    }
  }
  {  // Truncated frame then hangup mid-payload.
    Client client;
    client.connect(socket);
    const unsigned char hdr[4] = {0, 0, 0, 100};
    ASSERT_EQ(::send(client.fd(), hdr, sizeof(hdr), MSG_NOSIGNAL), 4);
    ASSERT_EQ(::send(client.fd(), "short", 5, MSG_NOSIGNAL), 5);
    client.close();
  }
  {  // Mid-job disconnect: the job is daemon-owned and completes anyway.
    Client client;
    client.connect(socket);
    EXPECT_TRUE(client.submit_raw(gen_spec("orphan"))
                    .find("accepted")
                    ->as_bool());
    client.close();
  }
  // After all of the above the daemon still serves.
  Client client;
  client.connect(socket);
  EXPECT_TRUE(client.ping());
  EXPECT_EQ(wait_state(client, "orphan"), "done");
}

TEST(SvcDaemon, BadSpecsFailTypedWithoutSideEffects) {
  TempDir dir;
  DaemonOptions opt = fast_options(dir);
  const std::string socket = opt.socket_path;
  DaemonHarness harness(std::move(opt));

  Client client;
  client.connect(socket);

  Json traversal = gen_spec("ok-id");
  traversal.set("id", Json::string("../../etc/passwd"));
  const Json r1 = client.submit_raw(std::move(traversal));
  EXPECT_FALSE(r1.find("ok")->as_bool());
  EXPECT_EQ(r1.find("kind")->as_string(), "bad_request");

  Json unknown_circuit = Json::object();
  unknown_circuit.set("id", Json::string("u1"));
  unknown_circuit.set("kind", Json::string("suite"));
  unknown_circuit.set("circuit", Json::string("no-such-circuit"));
  const Json r2 = client.submit_raw(std::move(unknown_circuit));
  EXPECT_FALSE(r2.find("ok")->as_bool());
  EXPECT_EQ(r2.find("kind")->as_string(), "bad_request");

  // Neither rejected spec left a job behind.
  const Json stats = client.stats();
  EXPECT_EQ(stats.find("jobs")->as_u64(), 0u);
  EXPECT_TRUE(client.ping());
}

TEST(SvcDaemon, OverloadShedsLowestPriorityAndRejectsEqual) {
  TempDir dir;
  DaemonOptions opt = fast_options(dir, /*executors=*/1, /*max_queue=*/1);
  const std::string socket = opt.socket_path;
  DaemonHarness harness(std::move(opt));

  Client client;
  client.connect(socket);

  // A ~20s job occupies the single executor while we probe admission
  // (the probes take microseconds; teardown drain-cancels the job).
  Json slow = gen_spec("slow", /*gates=*/600, /*t0=*/500, /*flip_flops=*/24);
  slow.set("priority", Json::integer(9));
  EXPECT_TRUE(client.submit_raw(std::move(slow)).find("accepted")->as_bool());
  // Wait for the executor to take it so the queue is actually empty.
  for (int i = 0; i < 1000; ++i) {
    const Json status = client.status("slow");
    const Json* job = status.find("job");
    ASSERT_NE(job, nullptr);
    if (job->find("state")->as_string() == "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  Json low = gen_spec("low-pri");
  low.set("priority", Json::integer(0));
  EXPECT_TRUE(client.submit_raw(std::move(low)).find("accepted")->as_bool());

  // Higher-priority arrival displaces the queued priority-0 job...
  Json high = gen_spec("high-pri");
  high.set("priority", Json::integer(3));
  EXPECT_TRUE(client.submit_raw(std::move(high)).find("accepted")->as_bool());

  const Json shed = client.status("low-pri");
  const Json* shed_job = shed.find("job");
  ASSERT_NE(shed_job, nullptr);
  EXPECT_EQ(shed_job->find("state")->as_string(), "shed");
  EXPECT_EQ(shed_job->find("error_kind")->as_string(), "shed");

  // ...but an equal-priority arrival is rejected, not churned.
  Json equal = gen_spec("equal-pri");
  equal.set("priority", Json::integer(3));
  const Json rej = client.submit_raw(std::move(equal));
  EXPECT_FALSE(rej.find("accepted")->as_bool());
  EXPECT_EQ(rej.find("reason")->as_string(), "queue_full");
}

TEST(SvcDaemon, PerJobDeadlineCutsTyped) {
  TempDir dir;
  DaemonOptions opt = fast_options(dir);
  opt.watchdog_interval_seconds = 0.01;
  const std::string socket = opt.socket_path;
  DaemonHarness harness(std::move(opt));

  Client client;
  client.connect(socket);
  Json spec =
      gen_spec("doomed", /*gates=*/600, /*t0=*/500, /*flip_flops=*/24);
  spec.set("deadline_seconds", Json::number(0.02));
  EXPECT_TRUE(client.submit_raw(std::move(spec)).find("accepted")->as_bool());

  EXPECT_EQ(wait_state(client, "doomed"), "failed");
  const Json status = client.status("doomed");
  const Json* job = status.find("job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->find("error_kind")->as_string(), "deadline_exceeded");
}

namespace {

std::string normalized_result(const Json& job) {
  const Json* result = job.find("result");
  if (result == nullptr) return "<no result>";
  Json copy = *result;
  copy.set("seconds", Json::number(0.0));  // the one wall-clock field
  return copy.dump();
}

}  // namespace

TEST(SvcDaemon, DrainAndRestartResumesBitIdentically) {
  // ~5s uninterrupted: slow enough that the drain lands mid-run, fast
  // enough for CI.
  const Json spec =
      gen_spec("resume-me", /*gates=*/400, /*t0=*/300, /*flip_flops=*/16);

  // Reference: the same job run to completion with no interruption.
  std::string reference;
  {
    TempDir ref_dir;
    DaemonOptions opt = fast_options(ref_dir);
    const std::string socket = opt.socket_path;
    DaemonHarness harness(std::move(opt));
    Client client;
    client.connect(socket);
    EXPECT_TRUE(client.submit_raw(spec).find("accepted")->as_bool());
    ASSERT_EQ(wait_state(client, "resume-me", 120.0), "done");
    reference = normalized_result(*client.status("resume-me").find("job"));
  }

  TempDir dir;
  DaemonOptions opt = fast_options(dir);
  const std::string socket = opt.socket_path;
  const std::string state_dir = opt.state_dir;

  // Generation 1: submit, let the job start, then drain mid-run.
  {
    DaemonOptions gen1 = opt;
    DaemonHarness harness(std::move(gen1));
    Client client;
    client.connect(socket);
    EXPECT_TRUE(client.submit_raw(spec).find("accepted")->as_bool());
    for (int i = 0; i < 500; ++i) {
      const Json status = client.status("resume-me");
      const Json* job = status.find("job");
      ASSERT_NE(job, nullptr);
      if (job->find("state")->as_string() != "queued") break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    client.close();
    harness.stop();  // drain: snapshot written, job re-queued (or done)
  }

  // Generation 2: same state dir resumes and finishes the job.
  {
    DaemonOptions gen2 = opt;
    DaemonHarness harness(std::move(gen2));
    Client client;
    client.connect(socket);
    ASSERT_EQ(wait_state(client, "resume-me", 120.0), "done");
    const std::string resumed =
        normalized_result(*client.status("resume-me").find("job"));
    EXPECT_EQ(resumed, reference);
  }
}

TEST(SvcDaemon, SharedRegistryReusesCircuitsAcrossJobs) {
  TempDir dir;
  DaemonOptions opt = fast_options(dir);
  const std::string socket = opt.socket_path;
  DaemonHarness harness(std::move(opt));

  Client client;
  client.connect(socket);
  // Two jobs over the same generated circuit (different measurement
  // seeds) must share one parsed circuit via the registry.
  Json a = gen_spec("reg-a");
  Json b = Json::object();
  b.set("id", Json::string("reg-b"));
  b.set("kind", Json::string("gen"));
  b.set("gen", gen_obj("t-reg-a"));  // same circuit key as reg-a
  b.set("t0_length", Json::integer(40));
  b.set("seed", Json::integer(2));
  EXPECT_TRUE(client.submit_raw(std::move(a)).find("accepted")->as_bool());
  EXPECT_EQ(wait_state(client, "reg-a"), "done");
  EXPECT_TRUE(client.submit_raw(std::move(b)).find("accepted")->as_bool());
  EXPECT_EQ(wait_state(client, "reg-b"), "done");

  const Json stats = client.stats();
  EXPECT_GE(stats.find("registry_circuits")->as_u64(), 1u);
  const Json* counters = stats.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->find("registry_circuit_hits")->as_u64(), 1u);
}

// Snapshots written by older daemons also carry each job's retained
// `events` ring and `events_dropped`.  The loader ignores those keys,
// well-formed or not, and resumes every job.
TEST(SvcDaemon, ResumesSnapshotsThatCarryEventRings) {
  TempDir dir;
  DaemonOptions opt = fast_options(dir);
  const std::string socket = opt.socket_path;

  Json result = Json::object();
  result.set("circuit", Json::string("t-old-done"));
  result.set("compacted_cycles", Json::integer(1234));
  Json event = Json::object();
  event.set("kind", Json::string("job_state"));
  event.set("job", Json::string("old-done"));
  event.set("phase", Json::string("svc"));
  event.set("seq", Json::integer(1));
  event.set("note", Json::string("done"));
  Json events = Json::array();
  events.push_back(std::move(event));

  Json done = Json::object();
  done.set("spec", gen_spec("old-done"));
  done.set("state", Json::string("done"));
  done.set("attempts", Json::integer(1));
  done.set("result", result);
  done.set("events", std::move(events));
  done.set("events_dropped", Json::integer(0));
  Json queued = Json::object();
  queued.set("spec", gen_spec("old-queued"));
  queued.set("state", Json::string("queued"));
  queued.set("attempts", Json::integer(0));
  queued.set("events", Json::string("not an event ring"));
  queued.set("events_dropped", Json::string("many"));
  Json jobs = Json::array();
  jobs.push_back(std::move(done));
  jobs.push_back(std::move(queued));
  Json root = Json::object();
  root.set("v", Json::integer(1));
  root.set("jobs", std::move(jobs));
  ASSERT_TRUE(util::store_write(opt.state_dir + "/resume.jobs", root.dump()));

  DaemonHarness harness(std::move(opt));
  Client client;
  client.connect(socket);
  const Json old = client.status("old-done");
  ASSERT_TRUE(old.find("ok")->as_bool());
  const Json* job = old.find("job");
  EXPECT_EQ(job->find("state")->as_string(), "done");
  ASSERT_NE(job->find("result"), nullptr);
  EXPECT_EQ(job->find("result")->dump(), result.dump());
  EXPECT_TRUE(client.status("old-queued").find("ok")->as_bool());
  EXPECT_EQ(wait_state(client, "old-queued"), "done");
}

}  // namespace
}  // namespace scanc::svc
