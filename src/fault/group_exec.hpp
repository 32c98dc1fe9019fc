// Parallel fault-group execution layer.
//
// Every FaultSimulator query reduces to the same plan: partition the
// target classes into groups of <= 63 (one simulation slot each, slot 0
// reserved for the fault-free machine), simulate chunks of consecutive
// groups independently on a BatchEngine (one group per lane), and
// combine per-group results in group order.  This file owns that plan.
//
// Determinism: each chunk's result depends only on (const inputs,
// chunk), never on which thread ran it or in what order, and callers
// write per-group/per-target slots and reduce serially in group order —
// so any thread count produces bit-identical results to a serial run.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "fault/batch_engine.hpp"
#include "sim/simd.hpp"
#include "util/thread_pool.hpp"

namespace scanc::fault {

/// How a query plan executes.
struct ExecPolicy {
  /// Worker threads: 1 = serial on the calling thread (no pool), 0 = one
  /// per hardware thread, otherwise the literal count.
  std::size_t num_threads = 1;
};

/// Per-chunk callback: `engine` is exclusively owned by the executing
/// thread for the duration of the call; the chunk is the groups
/// [first, first + n) of the plan.
using ChunkFn = std::function<void(BatchEngine& engine, std::size_t first,
                                   std::size_t n)>;

/// Runs fault-group query plans over one (circuit, fault list, scan
/// mask) universe.  Owns the worker-local engines and the thread pool;
/// both are created lazily and reused across queries, so the serial path
/// allocates only the engines it runs and never touches a thread
/// primitive.
///
/// Not itself thread-safe: one executor serves one query at a time.
class GroupExecutor {
 public:
  GroupExecutor(const netlist::Circuit& circuit, const FaultList& faults,
                util::Bitset scan_mask);

  /// Splits groups [0, ngroups) into chunks of `width` consecutive groups
  /// (the last one ragged) and invokes `fn` once per chunk under
  /// `policy`, with the executing thread's engine for `cfg`.  Chunk
  /// invocation order is unspecified beyond num_threads == 1
  /// (ascending); callers must keep per-group result slots and reduce
  /// after this returns.
  void for_each_chunk(std::size_t ngroups, std::size_t width,
                      const sim::SimdConfig& cfg, const ExecPolicy& policy,
                      const ChunkFn& fn);

  /// The serial path's engine for `cfg` (worker 0) — exposed for
  /// incremental simulation sessions that interleave with queries.
  [[nodiscard]] BatchEngine& serial_engine(const sim::SimdConfig& cfg) {
    return engine(0, cfg);
  }

 private:
  /// One executing thread's engines: the one-lane engine, built once,
  /// and the engine of the last wide config, rebuilt when it changes.
  /// At 64-bit lanes the config's engine is the one-lane engine.
  struct Worker {
    std::unique_ptr<BatchEngine> one_lane;
    std::unique_ptr<BatchEngine> wide;
    sim::SimdConfig wide_cfg;
  };

  /// Worker i's engine for `cfg`.  Grows workers_ on demand, so the
  /// fan-out creates every worker it uses before going parallel.
  [[nodiscard]] BatchEngine& engine(std::size_t i, const sim::SimdConfig& cfg);

  const netlist::Circuit* circuit_;
  const FaultList* faults_;
  util::Bitset scan_mask_;
  std::vector<Worker> workers_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace scanc::fault
