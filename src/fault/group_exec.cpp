#include "fault/group_exec.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/telemetry.hpp"

namespace scanc::fault {

GroupExecutor::GroupExecutor(const netlist::Circuit& circuit,
                             const FaultList& faults, util::Bitset scan_mask)
    : circuit_(&circuit), faults_(&faults), scan_mask_(std::move(scan_mask)) {}

BatchEngine& GroupExecutor::engine(std::size_t i, const sim::SimdConfig& cfg) {
  if (workers_.size() <= i) workers_.resize(i + 1);
  Worker& w = workers_[i];
  if (cfg.lanes() <= 1) {
    if (w.one_lane == nullptr) {
      w.one_lane =
          make_batch_engine(*circuit_, *faults_, scan_mask_, sim::SimdConfig{});
    }
    return *w.one_lane;
  }
  if (w.wide == nullptr || !(w.wide_cfg == cfg)) {
    w.wide = make_batch_engine(*circuit_, *faults_, scan_mask_, cfg);
    w.wide_cfg = cfg;
  }
  return *w.wide;
}

void GroupExecutor::for_each_chunk(std::size_t ngroups, std::size_t width,
                                   const sim::SimdConfig& cfg,
                                   const ExecPolicy& policy,
                                   const ChunkFn& fn) {
  if (ngroups == 0) return;
  obs::add(obs::Counter::GroupsExecuted, ngroups);
  if (cfg.lanes() > 1) obs::set_gauge(obs::Gauge::SimdLaneWidth, cfg.bits);
  const std::size_t num_chunks = (ngroups + width - 1) / width;
  const auto run = [&](std::size_t wi, std::size_t c) {
    const std::size_t first = c * width;
    fn(engine(wi, cfg), first, std::min(width, ngroups - first));
  };
  const std::size_t threads = std::min(
      util::ThreadPool::resolve_threads(policy.num_threads), num_chunks);
  if (threads <= 1) {
    for (std::size_t c = 0; c < num_chunks; ++c) run(0, c);
    return;
  }

  // One worker per executing thread, created before the fan-out so the
  // worker vector is never mutated concurrently; each thread builds its
  // own engine on its first chunk.
  if (workers_.size() < threads) workers_.resize(threads);
  if (pool_ == nullptr || pool_->size() < threads) {
    pool_ = std::make_unique<util::ThreadPool>(threads);
  }
  std::atomic<std::size_t> next{0};
  pool_->parallel_for(threads, [&](std::size_t wi) {
    for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
         c < num_chunks; c = next.fetch_add(1, std::memory_order_relaxed)) {
      run(wi, c);
    }
  });
}

}  // namespace scanc::fault
