// Tests for scanc::obs (src/util/telemetry.hpp): per-thread counter
// sharding under real pool concurrency (the TSan CI job runs this
// binary), Chrome-trace span nesting, kill/resume counter crediting,
// and the zero-allocation guarantee of the disabled-telemetry hot path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/trace_writer.hpp"

#include "trace_spans.hpp"

// ---------------------------------------------------------------------
// Global allocation counter for the zero-allocation test.  Counts every
// operator-new in the process; tests snapshot it around the region of
// interest.  Sized deletes forward to the counting sized-free path.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// noinline: inlined into a caller, the free() call trips GCC 12's
// -Wmismatched-new-delete (a false positive against the replaced new).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace scanc;

std::uint64_t count(obs::Counter c) { return obs::value(c); }

// ---------------------------------------------------------------------
// Counter sharding.

TEST(TelemetryCounters, AggregatesAcrossPoolWorkers) {
  obs::reset();
  constexpr std::size_t kTasks = 2000;
  constexpr std::uint64_t kPerTask = 3;
  {
    util::ThreadPool pool(8);
    pool.parallel_for(kTasks, [&](std::size_t) {
      obs::add(obs::Counter::FramesSimulated, kPerTask);
    });
    // Workers still alive: aggregation must see their live blocks.
    EXPECT_EQ(count(obs::Counter::FramesSimulated), kTasks * kPerTask);
  }
  // Workers joined: their totals must have drained into the retired
  // pool, not vanished with the thread-local blocks.
  EXPECT_EQ(count(obs::Counter::FramesSimulated), kTasks * kPerTask);
}

TEST(TelemetryCounters, DrainsOnThreadExit) {
  obs::reset();
  std::thread t([] { obs::add(obs::Counter::GroupsExecuted, 41); });
  t.join();
  obs::add(obs::Counter::GroupsExecuted);
  EXPECT_EQ(count(obs::Counter::GroupsExecuted), 42u);
}

TEST(TelemetryCounters, ConcurrentWritersNeverLoseIncrements) {
  obs::reset();
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      for (std::uint64_t j = 0; j < kPerThread; ++j) {
        obs::add(obs::Counter::QueriesRun);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(count(obs::Counter::QueriesRun), kThreads * kPerThread);
}

TEST(TelemetryCounters, DeltaSaturatesAtZero) {
  obs::CounterSnapshot before{};
  obs::CounterSnapshot after{};
  before[0] = 10;
  after[0] = 4;   // counter went "backwards" (e.g. across a reset)
  after[1] = 7;
  const obs::CounterSnapshot d = obs::counter_delta(after, before);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 7u);
}

TEST(TelemetryCounters, CreditMergesCarriedTotals) {
  obs::reset();
  obs::add(obs::Counter::FramesSimulated, 100);
  obs::CounterSnapshot carried{};
  carried[static_cast<std::size_t>(obs::Counter::FramesSimulated)] = 900;
  carried[static_cast<std::size_t>(obs::Counter::FaultsDetected)] = 5;
  obs::credit(carried);
  EXPECT_EQ(count(obs::Counter::FramesSimulated), 1000u);
  EXPECT_EQ(count(obs::Counter::FaultsDetected), 5u);
  // Credit lands in snapshots too.
  const obs::CounterSnapshot snap = obs::snapshot_counters();
  EXPECT_EQ(
      snap[static_cast<std::size_t>(obs::Counter::FramesSimulated)], 1000u);
}

TEST(TelemetryCounters, NamesAreStableSnakeCase) {
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    const std::string name =
        obs::counter_name(static_cast<obs::Counter>(i));
    EXPECT_FALSE(name.empty());
    for (const char ch : name) {
      EXPECT_TRUE((ch >= 'a' && ch <= 'z') || ch == '_')
          << "counter " << i << " name '" << name << "'";
    }
  }
  EXPECT_STREQ(obs::counter_name(obs::Counter::FramesSimulated),
               "frames_simulated");
}

// ---------------------------------------------------------------------
// Gauges, histograms, phases.

TEST(TelemetryGauges, LastWriterWins) {
  obs::reset();
  obs::set_gauge(obs::Gauge::ThreadsConfigured, 7);
  obs::set_gauge(obs::Gauge::ThreadsConfigured, 3);
  EXPECT_EQ(obs::gauge(obs::Gauge::ThreadsConfigured), 3u);
}

TEST(TelemetryHistograms, Log2Buckets) {
  obs::reset();
  obs::record(obs::Histogram::QueryNanos, 0);
  obs::record(obs::Histogram::QueryNanos, 1000);  // 2^9 <= 1000 < 2^10
  obs::record(obs::Histogram::QueryNanos, 1000);
  const obs::HistogramData h = obs::histogram(obs::Histogram::QueryNanos);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 2000u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1000u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[9], 2u);
}

TEST(TelemetryPhases, RecordPhaseBumpsFaultsDetected) {
  obs::reset();
  {
    obs::Phase phase("phase1+2");
    phase.credit(10);
  }
  {
    obs::Phase phase("phase3");
    obs::add(obs::Counter::QueriesRun, 2);
    phase.credit(4);
  }
  { const obs::Phase coverage("coverage"); }  // no credit: no detections
  const std::vector<obs::PhaseRecord> records = obs::phase_records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].name, "phase1+2");
  EXPECT_EQ(records[0].calls, 1u);
  EXPECT_GE(records[0].seconds, 0.0);
  EXPECT_EQ(records[1].faults_delta, 4u);
  EXPECT_EQ(records[2].faults_delta, 0u);
  // Counter deltas are taken between entry and exit.
  const auto at = [](const obs::PhaseRecord& r, obs::Counter c) {
    return r.counters[static_cast<std::size_t>(c)];
  };
  EXPECT_EQ(at(records[1], obs::Counter::QueriesRun), 2u);
  EXPECT_EQ(at(records[1], obs::Counter::FaultsDetected), 4u);
  EXPECT_EQ(at(records[0], obs::Counter::QueriesRun), 0u);
  EXPECT_EQ(count(obs::Counter::FaultsDetected), 14u);
}

TEST(TelemetryPhases, RecordsAggregateByName) {
  obs::reset();
  constexpr std::uint64_t kRuns = 5;
  for (std::uint64_t i = 0; i < kRuns; ++i) {
    obs::Phase outer("pipeline");
    {
      obs::Phase inner("phase3");
      obs::add(obs::Counter::GroupsExecuted, 3);
      inner.credit(2);
    }
  }
  const std::vector<obs::PhaseRecord> records = obs::phase_records();
  ASSERT_EQ(records.size(), 2u) << "one record per phase name";
  // Records appear in order of first exit.
  EXPECT_EQ(records[0].name, "phase3");
  EXPECT_EQ(records[1].name, "pipeline");
  for (const obs::PhaseRecord& r : records) {
    EXPECT_EQ(r.calls, kRuns) << r.name;
    EXPECT_EQ(r.counters[static_cast<std::size_t>(
                  obs::Counter::GroupsExecuted)],
              3 * kRuns)
        << r.name << ": an enclosing phase's delta includes its children";
  }
  EXPECT_EQ(records[0].faults_delta, 2 * kRuns);
  EXPECT_EQ(records[1].faults_delta, 0u);
  EXPECT_EQ(count(obs::Counter::FaultsDetected), 2 * kRuns);
}

TEST(TelemetryPhases, PhaseRestoresEnclosingPhase) {
  obs::reset();
  const obs::Phase outer("outer");
  {
    const obs::Phase inner("inner");
    EXPECT_STREQ(obs::current_phase(), "inner");
  }
  EXPECT_STREQ(obs::current_phase(), "outer");
}

TEST(TelemetryPhases, PhaseNotesReachTheScopeHookOnEntryOnly) {
  std::vector<std::string> notes;
  const obs::ProgressScope scope(
      [&notes](const char* note) { notes.emplace_back(note); });
  {
    const obs::Phase stage("stage", "stage", "stage note");
    const obs::Phase silent("silent");  // no note: the hook stays quiet
    {
      // An inner scope shadows the hook.
      const obs::ProgressScope inner({});
      const obs::Phase hidden("hidden", "phase", "hidden note");
    }
    const obs::Phase step("step", "step", "step note");
  }
  EXPECT_EQ(notes, (std::vector<std::string>{"stage note", "step note"}));
}

// ---------------------------------------------------------------------
// Trace spans.

using test::ParsedEvent;
using test::parse_spans;

TEST(TelemetryPhases, PhaseEventsBalanceOnEveryExit) {
  obs::reset();
  const obs::Phase enclosing("enclosing");
  const std::string path = testing::TempDir() + "scanc_phase_balance.json";
  ASSERT_TRUE(obs::open_trace(path));
  const auto throwing = [] {
    obs::Phase phase("outer");
    const obs::Phase inner("inner");
    phase.credit(3);
    throw std::runtime_error("query failed");
  };
  EXPECT_THROW(throwing(), std::runtime_error);
  obs::close_trace();
  EXPECT_STREQ(obs::current_phase(), "enclosing");
  const std::vector<ParsedEvent> spans = parse_spans(path);
  ASSERT_EQ(spans.size(), 2u) << "both phases closed their spans";
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  test::expect_well_nested(spans);
  // Every exit folds the record too, credit included.
  const std::vector<obs::PhaseRecord> records = obs::phase_records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].name, "outer");
  EXPECT_EQ(records[1].faults_delta, 3u);
  std::remove(path.c_str());
}

TEST(TelemetrySpans, NestedSpansContainedAndEndOrdered) {
  const std::string path = testing::TempDir() + "scanc_span_nesting.json";
  ASSERT_TRUE(obs::open_trace(path));
  {
    obs::Span outer("outer", "phase");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      obs::Span inner("inner", "step");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  obs::Span after("after", "phase");
  obs::close_trace();  // 'after' still open: must not appear
  const std::vector<ParsedEvent> spans = parse_spans(path);
  ASSERT_EQ(spans.size(), 2u);
  // Events are emitted at span end, so the inner span comes first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  const ParsedEvent& inner = spans[0];
  const ParsedEvent& outer = spans[1];
  EXPECT_EQ(inner.tid, outer.tid);
  // [inner.ts, inner.ts+dur] strictly inside [outer.ts, outer.ts+dur].
  EXPECT_GT(inner.ts, outer.ts);
  EXPECT_LT(inner.ts + inner.dur, outer.ts + outer.dur);
  EXPECT_GE(inner.dur, 1000u);  // slept 2 ms inside
  // The file as a whole is closed JSON.
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(text.find("\n]}"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TelemetrySpans, SpansFromPoolWorkersCarryDistinctTids) {
  const std::string path = testing::TempDir() + "scanc_span_tids.json";
  ASSERT_TRUE(obs::open_trace(path));
  {
    util::ThreadPool pool(4);
    pool.parallel_for(32, [](std::size_t) {
      obs::Span s("worker span", "query");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
  }
  obs::close_trace();
  const std::vector<ParsedEvent> spans = parse_spans(path);
  ASSERT_EQ(spans.size(), 32u);
  // Spans on the same thread never partially overlap (they are strictly
  // sequential there).
  test::expect_well_nested(spans);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Disabled-telemetry hot path.

TEST(TelemetryOverhead, DisabledSpansAndCountersAllocateNothing) {
  ASSERT_FALSE(obs::tracing_enabled());
  obs::add(obs::Counter::FramesSimulated);  // warm this thread's block
  { const obs::Phase warm("hot phase"); }   // create its phase record
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10000; ++i) {
    obs::Span span("hot", "query");
    const obs::Phase phase("hot phase");
    obs::add(obs::Counter::FramesSimulated, 2);
    obs::add(obs::Counter::FramesSkipped);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "disabled telemetry hot path allocated " << (after - before)
      << " times in 10000 iterations";
}

// ---------------------------------------------------------------------
// Reporting.

TEST(TelemetryReports, MetricsJsonCarriesSchemaAndSections) {
  obs::reset();
  obs::add(obs::Counter::FramesSimulated, 12);
  obs::record(obs::Histogram::QueryNanos, 500);
  {
    obs::Phase phase("phase1+2");
    obs::add(obs::Counter::QueriesRun, 6);
    phase.credit(3);
  }
  std::ostringstream out;
  obs::write_metrics_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\": \"scanc-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"frames_simulated\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"derived\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"phase1+2\", \"calls\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"faults_delta\": 3, \"counters\": {"),
            std::string::npos);
  EXPECT_NE(json.find("\"queries_run\": 6"), std::string::npos);
}

TEST(TelemetryReports, SummaryMentionsCountersAndPhases) {
  obs::reset();
  obs::add(obs::Counter::FramesSimulated, 90);
  obs::add(obs::Counter::FramesSkipped, 10);
  { const obs::Phase coverage("coverage"); }
  std::ostringstream out;
  obs::print_summary(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("frames simulated"), std::string::npos);
  EXPECT_NE(text.find("90"), std::string::npos);
  EXPECT_NE(text.find("coverage"), std::string::npos);
}

TEST(TelemetryReports, HeartbeatPrintsProgressLines) {
  obs::reset();
  const obs::Phase phase("hb-test");
  std::ostringstream sink;
  obs::Heartbeat hb;
  hb.start(0.02, &sink);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  hb.stop();
  const std::string text = sink.str();
  EXPECT_NE(text.find("[obs]"), std::string::npos);
  EXPECT_NE(text.find("phase=hb-test"), std::string::npos);
  // stop() joins: no lines appear after it.
  const std::size_t len = text.size();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(sink.str().size(), len);
}

TEST(TelemetryReports, MetricsSnapshotsAreOrderable) {
  obs::reset();
  std::ostringstream first;
  std::ostringstream second;
  obs::write_metrics_json(first);
  obs::write_metrics_json(second);
  const auto stamp = [](const std::string& json, const char* key) {
    const std::size_t at = json.find(key);
    EXPECT_NE(at, std::string::npos) << key;
    return std::strtoull(json.c_str() + at + std::strlen(key), nullptr, 10);
  };
  const std::uint64_t s1 = stamp(first.str(), "\"sequence\": ");
  const std::uint64_t s2 = stamp(second.str(), "\"sequence\": ");
  EXPECT_LT(s1, s2) << "sequence is monotonic across snapshots";
  const std::uint64_t ms = stamp(first.str(), "\"emitted_unix_ms\": ");
  EXPECT_GT(ms, 1'600'000'000'000ull) << "wall-clock stamp is plausible";
}

TEST(TelemetryReports, ResetZeroesEverything) {
  obs::add(obs::Counter::FramesSimulated, 5);
  obs::set_gauge(obs::Gauge::ThreadsConfigured, 4);
  obs::record(obs::Histogram::TaskRunNanos, 77);
  {
    obs::Phase phase("p");
    phase.credit(2);
  }
  obs::reset();
  EXPECT_EQ(count(obs::Counter::FramesSimulated), 0u);
  EXPECT_EQ(count(obs::Counter::FaultsDetected), 0u);
  EXPECT_EQ(obs::gauge(obs::Gauge::ThreadsConfigured), 0u);
  EXPECT_EQ(obs::histogram(obs::Histogram::TaskRunNanos).count, 0u);
  EXPECT_TRUE(obs::phase_records().empty());
}

}  // namespace
