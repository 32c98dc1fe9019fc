#include "util/trace_writer.hpp"

#include <atomic>
#include <chrono>
#include <memory>

namespace scanc::obs {
namespace {

std::chrono::steady_clock::time_point epoch() noexcept {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return t0;
}

// Global writer slot.  The enabled flag is the only thing the hot path
// reads; the shared_ptr swap is mutex-guarded and rare (process setup
// and teardown).
std::atomic<bool> g_tracing{false};
std::mutex g_writer_mutex;
std::shared_ptr<TraceWriter> g_writer;  // guarded by g_writer_mutex

std::shared_ptr<TraceWriter> current_writer() {
  const std::lock_guard<std::mutex> lock(g_writer_mutex);
  return g_writer;
}

}  // namespace

std::uint64_t now_micros() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch())
          .count());
}

std::uint32_t this_thread_id() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TraceWriter::TraceWriter(const std::string& path) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) return;
  std::fputs("{\"traceEvents\":[\n", file_);
  std::fprintf(file_,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"scanc\"}}");
  first_ = false;
}

TraceWriter::~TraceWriter() { finish(); }

void TraceWriter::raw_event(const char* json) {
  if (file_ == nullptr || finished_) return;
  if (!first_) std::fputs(",\n", file_);
  first_ = false;
  std::fputs(json, file_);
}

void TraceWriter::event_complete(const char* name, const char* cat,
                                 std::uint64_t ts_us, std::uint64_t dur_us,
                                 std::uint32_t tid) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                "\"tid\":%u,\"ts\":%llu,\"dur\":%llu}",
                name, cat, static_cast<unsigned>(tid),
                static_cast<unsigned long long>(ts_us),
                static_cast<unsigned long long>(dur_us));
  const std::lock_guard<std::mutex> lock(mutex_);
  raw_event(buf);
}

void TraceWriter::finish() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr || finished_) return;
  std::fputs("\n]}\n", file_);
  std::fclose(file_);
  file_ = nullptr;
  finished_ = true;
}

bool open_trace(const std::string& path) {
  auto writer = std::make_shared<TraceWriter>(path);
  if (!writer->ok()) return false;
  std::shared_ptr<TraceWriter> old;
  {
    const std::lock_guard<std::mutex> lock(g_writer_mutex);
    old = std::move(g_writer);
    g_writer = std::move(writer);
  }
  g_tracing.store(true, std::memory_order_release);
  if (old) old->finish();
  return true;
}

void close_trace() {
  g_tracing.store(false, std::memory_order_release);
  std::shared_ptr<TraceWriter> old;
  {
    const std::lock_guard<std::mutex> lock(g_writer_mutex);
    old = std::move(g_writer);
  }
  if (old) old->finish();
}

bool tracing_enabled() noexcept {
  return g_tracing.load(std::memory_order_relaxed);
}

void trace_event(const char* name, const char* cat, std::uint64_t ts_us,
                 std::uint64_t dur_us) {
  if (!tracing_enabled()) return;
  const std::shared_ptr<TraceWriter> w = current_writer();
  if (w) w->event_complete(name, cat, ts_us, dur_us, this_thread_id());
}

}  // namespace scanc::obs
