// Cross-job shared state: parsed circuits, collapsed fault lists, and
// pooled fault simulators (reuse saves their construction: group
// workers, packing ranks).  A simulator keeps no trace state between
// queries, so a pooled one answers exactly as a fresh one.
//
// Sharing model (docs/service.md):
//
//   - Circuits and fault lists are immutable once published.  Readers
//     hold them through shared_ptr<const T> — copy-on-write in the
//     degenerate sense that nobody ever writes: a hypothetical rebuild
//     publishes a *new* object and swaps the registry pointer; jobs
//     started on the old one keep it alive until they finish.
//
//   - Simulators are mutable (per-query scratch), so they are never
//     shared concurrently: a job takes an *exclusive* lease, and the
//     pool hands the same instance to the next job on the same
//     (circuit, model) once released.
//
// Both maps are bounded (LRU eviction of idle entries) so a daemon that
// sees thousands of distinct circuits does not grow without limit.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "expt/runner.hpp"
#include "fault/fault_sim.hpp"
#include "fault/model.hpp"
#include "gen/suite.hpp"

namespace scanc::svc {

struct RegistryLimits {
  std::size_t max_circuits = 32;   ///< distinct (circuit, model) inputs
  std::size_t max_idle_sims = 8;   ///< pooled simulators awaiting reuse
};

class SharedRegistry {
 public:
  using Limits = RegistryLimits;

  explicit SharedRegistry(Limits limits = Limits()) : limits_(limits) {}

  SharedRegistry(const SharedRegistry&) = delete;
  SharedRegistry& operator=(const SharedRegistry&) = delete;

  /// Shared inputs for `entry` under `model`, keyed by `key` (see
  /// circuit_key).  Builds and publishes on miss; concurrent callers for
  /// the same key may race to build but converge on one published copy.
  /// Counts RegistryCircuitHits / RegistryCircuitMisses.
  [[nodiscard]] expt::SharedInputs inputs(const std::string& key,
                                          const gen::SuiteEntry& entry,
                                          fault::FaultModelKind model);

  /// Exclusive lease of a pooled simulator.  Move-only RAII: releasing
  /// returns the simulator to the pool.
  class SimLease {
   public:
    SimLease() = default;
    SimLease(SimLease&& other) noexcept { swap(other); }
    SimLease& operator=(SimLease&& other) noexcept {
      swap(other);
      return *this;
    }
    SimLease(const SimLease&) = delete;
    SimLease& operator=(const SimLease&) = delete;
    ~SimLease();

    [[nodiscard]] fault::FaultSimulator* get() const noexcept;
    [[nodiscard]] explicit operator bool() const noexcept {
      return slot_ != nullptr;
    }

   private:
    friend class SharedRegistry;
    struct Slot;
    void swap(SimLease& other) noexcept {
      std::swap(registry_, other.registry_);
      std::swap(slot_, other.slot_);
    }
    SharedRegistry* registry_ = nullptr;
    std::shared_ptr<Slot> slot_;
  };

  /// Leases a simulator for (key, model): an idle pooled one when
  /// available (RegistrySimReuses++), else a fresh instance built on the
  /// shared inputs.  The lease keeps the underlying circuit and fault
  /// list alive independently of the registry's own maps.
  [[nodiscard]] SimLease lease_simulator(const std::string& key,
                                         const gen::SuiteEntry& entry,
                                         fault::FaultModelKind model);

  /// Current pool statistics (tests / stats op).
  struct Stats {
    std::size_t circuits = 0;
    std::size_t idle_sims = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct InputsEntry {
    std::string key;  // "<circuit_key>#<model>"
    expt::SharedInputs inputs;
    std::uint64_t last_used = 0;
  };

  // SimLease::Slot (defined in registry.cpp) owns the simulator plus the
  // inputs it was built on, so a pooled simulator never outlives its
  // circuit even after the inputs map evicted that entry.
  void release(std::shared_ptr<SimLease::Slot> slot);

  expt::SharedInputs inputs_locked(const std::string& full_key,
                                   const gen::SuiteEntry& entry,
                                   fault::FaultModelKind model,
                                   std::unique_lock<std::mutex>& lock);

  Limits limits_;
  mutable std::mutex mutex_;
  std::uint64_t tick_ = 0;
  std::vector<InputsEntry> inputs_;                       // guarded by mutex_
  std::vector<std::shared_ptr<SimLease::Slot>> idle_;     // guarded by mutex_
};

}  // namespace scanc::svc
