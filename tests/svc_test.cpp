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
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/job.hpp"
#include "svc/json.hpp"
#include "svc/wire.hpp"
#include "util/cancel.hpp"

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

// ---------------------------------------------------------------------
// Live introspection: the watch stream and events replay.

/// Reads stream frames until the end frame (or `max_frames`), recording
/// event frames and dropped markers.
struct StreamCapture {
  std::vector<Json> events;
  std::vector<std::uint64_t> dropped_markers;
  Json end = Json::object();
  bool ended = false;
};

StreamCapture read_stream(Client& client, std::size_t max_frames = 4096) {
  StreamCapture cap;
  for (std::size_t i = 0; i < max_frames; ++i) {
    auto frame = client.next_frame(30.0);
    if (!frame) break;
    if (frame->find("end") != nullptr) {
      cap.end = std::move(*frame);
      cap.ended = true;
      break;
    }
    if (const Json* d = frame->find("dropped")) {
      cap.dropped_markers.push_back(d->as_u64());
      continue;
    }
    const Json* ev = frame->find("event");
    if (ev == nullptr) {
      ADD_FAILURE() << "unexpected stream frame: " << frame->dump();
      break;
    }
    cap.events.push_back(*ev);
  }
  return cap;
}

TEST(SvcWatch, LiveStreamIsOrderedAndGapFreeOrMarked) {
  TempDir dir;
  DaemonOptions opt = fast_options(dir);
  opt.event_history = 4096;  // replay covers events before the attach
  opt.watch_queue_capacity = 65536;  // no shedding: assert true gap-freedom
  const std::string socket = opt.socket_path;
  DaemonHarness harness(std::move(opt));

  Client submitter;
  submitter.connect(socket);
  ASSERT_TRUE(
      submitter.submit_raw(gen_spec("w1", 60, 80)).find("accepted")->as_bool());

  Client watcher;
  watcher.connect(socket);
  const Json ack = watcher.watch_start("w1");
  ASSERT_NE(ack.find("ok"), nullptr) << ack.dump();
  ASSERT_TRUE(ack.find("ok")->as_bool()) << ack.dump();
  EXPECT_EQ(ack.find("op")->as_string(), "watch");

  StreamCapture cap = read_stream(watcher);
  ASSERT_TRUE(cap.ended) << "stream must end when the job is terminal";
  EXPECT_EQ(cap.end.find("state")->as_string(), "done");
  ASSERT_FALSE(cap.events.empty());

  // Sequence numbers are strictly increasing and gap-free unless an
  // explicit dropped marker accounted for the hole (acceptance
  // criterion).  With a huge history ring and a fast consumer there
  // should be no marker at all, so the stream starts at seq 1.
  ASSERT_TRUE(cap.dropped_markers.empty());
  std::uint64_t expected = 1;
  std::map<std::string, int> phase_depth;  // open begins per phase path
  bool saw_phase_begin = false;
  bool saw_phase_end = false;
  bool saw_round = false;
  bool saw_done_state = false;
  for (const Json& ev : cap.events) {
    EXPECT_EQ(ev.find("job")->as_string(), "w1");
    EXPECT_EQ(ev.find("seq")->as_u64(), expected)
        << "gap in the event sequence at " << ev.dump();
    ++expected;
    const std::string kind = ev.find("kind")->as_string();
    const std::string phase = ev.find("phase")->as_string();
    if (kind == "phase_begin") {
      ++phase_depth[phase];
      if (phase == "phase1+2") saw_phase_begin = true;
    } else if (kind == "phase_end") {
      // Every end closes a previously streamed begin of the same phase.
      EXPECT_GT(phase_depth[phase], 0)
          << "phase_end without a begin: " << ev.dump();
      --phase_depth[phase];
      if (phase == "phase1+2") saw_phase_end = true;
    } else if (kind == "round") {
      saw_round = true;
      EXPECT_GT(phase_depth["phase1+2"], 0)
          << "rounds happen inside an open phase1+2";
    } else if (kind == "job_state" &&
               ev.find("note")->as_string() == "done") {
      saw_done_state = true;
    }
  }
  EXPECT_TRUE(saw_phase_begin);
  EXPECT_TRUE(saw_phase_end);
  EXPECT_TRUE(saw_round);
  EXPECT_TRUE(saw_done_state);

  // The stream ended cleanly: the same connection serves requests again.
  EXPECT_TRUE(watcher.ping());
}

TEST(SvcWatch, FinishedJobRepliesReplayWithDroppedMarker) {
  TempDir dir;
  DaemonOptions opt = fast_options(dir);
  // A tiny ring guarantees overflow, so the replay must carry an
  // explicit dropped marker — the deterministic shed path.
  opt.event_history = 4;
  const std::string socket = opt.socket_path;
  DaemonHarness harness(std::move(opt));

  Client client;
  client.connect(socket);
  ASSERT_TRUE(
      client.submit_raw(gen_spec("old")).find("accepted")->as_bool());
  ASSERT_EQ(wait_state(client, "old"), "done");

  Client watcher;
  watcher.connect(socket);
  const Json ack = watcher.watch_start("old");
  ASSERT_TRUE(ack.find("ok")->as_bool()) << ack.dump();
  EXPECT_FALSE(ack.find("live")->as_bool());

  StreamCapture cap = read_stream(watcher);
  ASSERT_TRUE(cap.ended);
  EXPECT_LE(cap.events.size(), 4u) << "replay is bounded by the ring";
  ASSERT_FALSE(cap.dropped_markers.empty())
      << "ring overflow must surface as a dropped marker";
  EXPECT_GT(cap.dropped_markers.front(), 0u);
  // Post-marker events are still ordered and contiguous.
  for (std::size_t i = 1; i < cap.events.size(); ++i) {
    EXPECT_EQ(cap.events[i].find("seq")->as_u64(),
              cap.events[i - 1].find("seq")->as_u64() + 1);
  }
}

TEST(SvcWatch, UnknownJobIsTypedErrorAndConnectionSurvives) {
  TempDir dir;
  DaemonOptions opt = fast_options(dir);
  const std::string socket = opt.socket_path;
  DaemonHarness harness(std::move(opt));

  Client client;
  client.connect(socket);
  const Json resp = client.watch_start("no-such-job");
  ASSERT_NE(resp.find("ok"), nullptr);
  EXPECT_FALSE(resp.find("ok")->as_bool());
  EXPECT_EQ(resp.find("kind")->as_string(), "not_found");
  // The typed miss is a single response frame, not a dead stream.
  EXPECT_TRUE(client.ping());
}

TEST(SvcWatch, VanishingSubscriberDoesNotStallTheJob) {
  TempDir dir;
  DaemonOptions opt = fast_options(dir);
  const std::string socket = opt.socket_path;
  DaemonHarness harness(std::move(opt));

  Client submitter;
  submitter.connect(socket);
  ASSERT_TRUE(
      submitter.submit_raw(gen_spec("v1", 60, 80)).find("accepted")->as_bool());

  // Attach a watcher and vanish without reading a single stream frame.
  {
    Client watcher;
    watcher.connect(socket);
    (void)watcher.watch_start("v1");
  }  // destructor closes the fd mid-stream

  // The job still completes and the daemon still serves.
  EXPECT_EQ(wait_state(submitter, "v1", 120.0), "done");
  EXPECT_TRUE(submitter.ping());
}

TEST(SvcWatch, AllJobsStreamEndsOnDrain) {
  TempDir dir;
  DaemonOptions opt = fast_options(dir);
  const std::string socket = opt.socket_path;
  auto harness = std::make_unique<DaemonHarness>(std::move(opt));

  Client submitter;
  submitter.connect(socket);
  ASSERT_TRUE(
      submitter.submit_raw(gen_spec("d1")).find("accepted")->as_bool());
  ASSERT_EQ(wait_state(submitter, "d1"), "done");

  Client watcher;
  watcher.connect(socket);
  const Json ack = watcher.watch_start("*");
  ASSERT_TRUE(ack.find("ok")->as_bool()) << ack.dump();

  std::thread stopper([&] { harness->stop(); });
  // The wildcard stream ends with a draining end frame, not a cut.
  bool saw_drain_end = false;
  for (int i = 0; i < 4096 && !saw_drain_end; ++i) {
    std::optional<Json> frame;
    try {
      frame = watcher.next_frame(30.0);
    } catch (const WireError&) {
      break;  // acceptable: connection torn down by process exit timing
    }
    if (!frame) break;
    if (frame->find("end") != nullptr) {
      const Json* reason = frame->find("reason");
      saw_drain_end =
          reason != nullptr && reason->as_string() == "draining";
    }
  }
  stopper.join();
  EXPECT_TRUE(saw_drain_end);
}

TEST(SvcEvents, BoundedReplayVerbAndTypedMiss) {
  TempDir dir;
  DaemonOptions opt = fast_options(dir);
  opt.event_history = 16;
  const std::string socket = opt.socket_path;
  DaemonHarness harness(std::move(opt));

  Client client;
  client.connect(socket);
  ASSERT_TRUE(client.submit_raw(gen_spec("e1")).find("accepted")->as_bool());
  ASSERT_EQ(wait_state(client, "e1"), "done");

  const Json resp = client.events("e1");
  ASSERT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
  EXPECT_EQ(resp.find("op")->as_string(), "events");
  const Json* events = resp.find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->items().empty());
  EXPECT_LE(events->items().size(), 16u);
  // Every replayed event is schema-complete.
  for (const Json& ev : events->items()) {
    EXPECT_NE(ev.find("kind"), nullptr);
    EXPECT_NE(ev.find("seq"), nullptr);
    EXPECT_NE(ev.find("t_us"), nullptr);
  }

  const Json miss = client.events("never-submitted");
  EXPECT_FALSE(miss.find("ok")->as_bool());
  EXPECT_EQ(miss.find("kind")->as_string(), "not_found");
}

}  // namespace
}  // namespace scanc::svc
