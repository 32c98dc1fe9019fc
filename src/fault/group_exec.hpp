// Parallel fault-group execution layer.
//
// Every FaultSimulator query reduces to the same plan: partition the
// target classes into groups of <= 63 (one simulation slot each, slot 0
// reserved for the fault-free machine), simulate each group
// independently, and combine per-group results in group order.  This
// file owns that plan.
//
// Determinism: each group's result depends only on (const inputs,
// group), never on which thread ran it or in what order, and callers
// write per-group/per-target slots and reduce serially in group order —
// so any thread count produces bit-identical results to a serial run.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fault/group_worker.hpp"
#include "util/thread_pool.hpp"

namespace scanc::fault {

/// How a query plan executes.
struct ExecPolicy {
  /// Worker threads: 1 = serial on the calling thread (no pool), 0 = one
  /// per hardware thread, otherwise the literal count.
  std::size_t num_threads = 1;
};

/// Per-group callback: the worker is exclusively owned by the executing
/// thread for the duration of the call; `group_index` addresses the
/// caller's result slot; `group` is the slice of target class ids.
using GroupFn = std::function<void(
    GroupWorker&, std::size_t group_index, std::span<const FaultClassId>)>;

/// Per-chunk callback for for_each_chunk: same worker-ownership contract
/// as GroupFn, but the caller defines what a chunk is (the wide
/// fault-parallel path runs one chunk of lanes() consecutive groups per
/// call).
using ChunkFn = std::function<void(GroupWorker&, std::size_t chunk_index)>;

/// Runs fault-group query plans over one (circuit, fault list, scan
/// mask) universe.  Owns the worker-local engines and the thread pool;
/// both are created lazily and reused across queries, so the serial path
/// allocates exactly one engine and never touches a thread primitive.
///
/// Not itself thread-safe: one executor serves one query at a time.
class GroupExecutor {
 public:
  GroupExecutor(const netlist::Circuit& circuit, const FaultList& faults,
                util::Bitset scan_mask);

  /// Partitions `targets` into <= 63-class groups and invokes `fn` once
  /// per group under `policy`.  Group order of *invocation* is
  /// unspecified beyond num_threads == 1 (ascending); callers must keep
  /// per-group result slots and reduce after this returns.
  void for_each_group(std::span<const FaultClassId> targets,
                      const ExecPolicy& policy, const GroupFn& fn);

  /// Generic fan-out `for_each_group` is built on: invokes `fn` once per
  /// chunk index in [0, num_chunks) under `policy` with a thread-owned
  /// worker.  Chunk invocation order is unspecified beyond
  /// num_threads == 1 (ascending); results must not depend on it.
  void for_each_chunk(std::size_t num_chunks, const ExecPolicy& policy,
                      const ChunkFn& fn);

  /// The engine the serial path uses (worker 0) — exposed for
  /// incremental simulation sessions that interleave with queries.
  [[nodiscard]] GroupWorker& serial_worker() { return worker(0); }

 private:
  [[nodiscard]] GroupWorker& worker(std::size_t i);

  const netlist::Circuit* circuit_;
  const FaultList* faults_;
  util::Bitset scan_mask_;
  std::vector<std::unique_ptr<GroupWorker>> workers_;
  std::unique_ptr<util::ThreadPool> pool_;
};

/// Query-plan entry point: partition `targets` into <= 63-class groups
/// and run `fn` over them on `exec` under `policy`.  (Thin sugar over
/// the member function so call sites read as a plan, not a method.)
inline void for_each_group(GroupExecutor& exec,
                           std::span<const FaultClassId> targets,
                           const ExecPolicy& policy, const GroupFn& fn) {
  exec.for_each_group(targets, policy, fn);
}

}  // namespace scanc::fault
