#include "gen/circuit_gen.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace scanc::gen {

using netlist::CircuitBuilder;
using netlist::GateType;
using netlist::NodeId;
using util::Rng;

namespace {

struct Sig {
  std::string name;
  NodeId id = netlist::kNoNode;
  bool pi_only = false;  ///< support contains no flip-flop
};

class Generator {
 public:
  explicit Generator(const GenParams& p)
      : p_(p), builder_(p.name), rng_(p.seed ^ 0x5ca9c0dace11ULL) {}

  netlist::Circuit run() {
    if (p_.num_inputs == 0 || p_.num_outputs == 0) {
      throw std::invalid_argument(
          "generate_circuit: need at least one input and one output");
    }
    make_interface();
    make_pi_cone();
    make_main_logic();
    make_next_state_logic();
    choose_outputs();
    return builder_.build();
  }

 private:
  void add_to_pool(std::string name, NodeId id, bool pi_only,
                   std::vector<std::size_t> fanins = {}) {
    pool_.push_back(Sig{std::move(name), id, pi_only});
    uses_.push_back(0);
    pool_fanins_.push_back(std::move(fanins));
    if (pi_only) pi_only_indices_.push_back(pool_.size() - 1);
  }

  /// Picks a fanin from the pool: half the time an as-yet-unused signal
  /// (creates fanout coverage), otherwise recency-biased random.
  std::size_t pick(bool pi_only_required) {
    if (pi_only_required) {
      return pi_only_indices_[rng_.below(pi_only_indices_.size())];
    }
    if (rng_.chance(1, 2)) {
      // Scan a few random slots for an unused signal.
      for (int tries = 0; tries < 6; ++tries) {
        const std::size_t i = rng_.below(pool_.size());
        if (uses_[i] == 0) return i;
      }
    }
    if (rng_.chance(7, 10)) {
      // Recency bias: quadratic ramp toward the newest signals.
      const double r = rng_.unit();
      const auto back = static_cast<std::size_t>(
          r * r * static_cast<double>(pool_.size() - 1));
      return pool_.size() - 1 - back;
    }
    return rng_.below(pool_.size());
  }

  GateType random_gate_type(std::size_t fanins) {
    if (fanins == 1) return rng_.chance(7, 10) ? GateType::Not : GateType::Buf;
    const std::uint64_t r = rng_.below(100);
    if (r < 24) return GateType::Nand;
    if (r < 44) return GateType::Nor;
    if (r < 62) return GateType::And;
    if (r < 80) return GateType::Or;
    if (r < 92) return GateType::Xor;
    return GateType::Xnor;
  }

  std::size_t random_fanin_count() {
    const std::uint64_t r = rng_.below(100);
    if (r < 8) return 1;
    if (r < 72) return 2;
    if (r < 92) return 3;
    return 4;
  }

  /// True when one candidate fanin directly drives the other: such pairs
  /// create 1-level reconvergence, the cheapest-to-avoid source of
  /// redundant logic.
  [[nodiscard]] bool directly_related(std::size_t a, std::size_t b) const {
    const auto drives = [&](std::size_t src, std::size_t dst) {
      const std::vector<std::size_t>& f = pool_fanins_[dst];
      return std::find(f.begin(), f.end(), src) != f.end();
    };
    return drives(a, b) || drives(b, a);
  }

  /// Emits one random gate drawing fanins from the pool.
  void emit_gate(bool pi_only_cone) {
    const std::size_t nf = random_fanin_count();
    std::vector<std::size_t> picks;
    picks.reserve(nf);
    for (std::size_t i = 0; i < nf; ++i) {
      std::size_t s = pick(pi_only_cone);
      // Avoid duplicate and directly-related fanins where easily
      // possible (bounded retries keep generation O(gates)).
      const auto bad = [&](std::size_t cand) {
        if (std::find(picks.begin(), picks.end(), cand) != picks.end()) {
          return true;
        }
        for (const std::size_t p : picks) {
          if (directly_related(p, cand)) return true;
        }
        return false;
      };
      for (int tries = 0; tries < 4 && bad(s); ++tries) {
        s = pick(pi_only_cone);
      }
      picks.push_back(s);
    }
    const GateType type = random_gate_type(picks.size());
    std::vector<std::string_view> fanin_names;
    fanin_names.reserve(picks.size());
    bool pi_only = true;
    for (const std::size_t s : picks) {
      fanin_names.push_back(pool_[s].name);
      pi_only = pi_only && pool_[s].pi_only;
      ++uses_[s];
    }
    std::string name = "g";
    name += std::to_string(gate_counter_++);
    const NodeId id = builder_.add_gate(
        type, name, std::span<const std::string_view>(fanin_names));
    add_to_pool(name, id, pi_only, std::move(picks));
  }

  void make_interface() {
    for (std::size_t i = 0; i < p_.num_inputs; ++i) {
      const std::string name = "pi" + std::to_string(i);
      const NodeId id = builder_.add_input(name);
      add_to_pool(name, id, /*pi_only=*/true);
    }
    for (std::size_t i = 0; i < p_.num_flip_flops; ++i) {
      const std::string name = "ff" + std::to_string(i);
      const std::string ns = "ns" + std::to_string(i);
      const NodeId id = builder_.add_gate(GateType::Dff, name, {ns});
      add_to_pool(name, id, /*pi_only=*/false);
    }
  }

  /// A cone of PI-only gates: the pool the load multiplexers draw their
  /// data and select functions from.  Capped by the input count — with
  /// few PIs the space of distinct functions is tiny, and overdrawing it
  /// floods the circuit with redundant (untestable-fault) logic.
  void make_pi_cone() {
    const std::size_t count = std::min(
        {p_.num_gates / 8 + 2, std::max<std::size_t>(p_.num_flip_flops, 4),
         p_.num_inputs * 2});
    for (std::size_t i = 0; i < count; ++i) emit_gate(/*pi_only_cone=*/true);
    main_emitted_ += count;
  }

  void make_main_logic() {
    // Budget the FF support logic (up to 3 extra gates per mux FF) and the
    // observability tree out of the requested gate count.
    const auto ff_cost = static_cast<std::size_t>(
        static_cast<double>(p_.num_flip_flops) *
        (3.0 * p_.pi_mux_fraction + 1.0));
    const std::size_t reserve = ff_cost + p_.num_outputs / 2 + 4;
    const std::size_t budget =
        p_.num_gates > reserve + main_emitted_
            ? p_.num_gates - reserve - main_emitted_
            : 4;
    for (std::size_t i = 0; i < budget; ++i) emit_gate(false);
    main_emitted_ += budget;
  }

  void make_next_state_logic() {
    for (std::size_t i = 0; i < p_.num_flip_flops; ++i) {
      const std::string ns = "ns" + std::to_string(i);
      if (rng_.unit() < p_.pi_mux_fraction) {
        // ns = (sel & data) | (~sel & hold): loading a PI-only value when
        // sel=1 makes the FF initializable from the all-X state.
        const std::size_t sel = rng_.below(p_.num_inputs);  // a raw PI
        const std::string& sel_name = pool_[sel].name;
        const std::size_t data = pick(/*pi_only_required=*/true);
        const std::size_t hold = pick(false);
        ++uses_[sel];
        ++uses_[data];
        ++uses_[hold];
        const std::string nsel = "nsel" + std::to_string(i);
        const std::string ld = "ld" + std::to_string(i);
        const std::string hd = "hd" + std::to_string(i);
        builder_.add_gate(GateType::Not, nsel, {sel_name});
        builder_.add_gate(GateType::And, ld, {sel_name, pool_[data].name});
        builder_.add_gate(GateType::And, hd, {nsel, pool_[hold].name});
        builder_.add_gate(GateType::Or, ns, {ld, hd});
      } else {
        // Plain feedback logic: harder to control without scan.
        const std::size_t a = pick(false);
        const std::size_t b = pick(false);
        ++uses_[a];
        ++uses_[b];
        const GateType t = random_gate_type(2);
        builder_.add_gate(t, ns, {pool_[a].name, pool_[b].name});
      }
    }
  }

  void choose_outputs() {
    // Primary outputs: distinct signals biased toward late main gates.
    std::vector<std::size_t> chosen;
    const std::size_t want = p_.num_outputs > 1 ? p_.num_outputs - 1 : 0;
    std::size_t guard = 0;
    while (chosen.size() < want && guard++ < want * 20 + 64) {
      const std::size_t s =
          p_.num_inputs + rng_.below(pool_.size() - p_.num_inputs);
      if (std::find(chosen.begin(), chosen.end(), s) != chosen.end()) {
        continue;
      }
      chosen.push_back(s);
      ++uses_[s];
      builder_.mark_output(pool_[s].name);
    }

    // Fold every dangling signal into a parity tree; its root is the last
    // primary output, making all logic (conservatively) observable.
    std::vector<std::size_t> dangling;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      if (uses_[i] == 0) dangling.push_back(i);
    }
    if (dangling.empty()) {
      // Nothing dangles; reuse the most recent signal as the final PO.
      builder_.mark_output(pool_.back().name);
      return;
    }
    std::string acc = pool_[dangling[0]].name;
    ++uses_[dangling[0]];
    for (std::size_t i = 1; i < dangling.size(); ++i) {
      const std::string name = "obs" + std::to_string(i);
      ++uses_[dangling[i]];
      builder_.add_gate(GateType::Xor, name, {acc, pool_[dangling[i]].name});
      acc = name;
    }
    builder_.mark_output(acc);
  }

  GenParams p_;
  CircuitBuilder builder_;
  Rng rng_;
  std::vector<Sig> pool_;
  std::vector<std::uint32_t> uses_;
  std::vector<std::vector<std::size_t>> pool_fanins_;
  std::vector<std::size_t> pi_only_indices_;
  std::size_t gate_counter_ = 0;
  std::size_t main_emitted_ = 0;
};

}  // namespace

netlist::Circuit generate_circuit(const GenParams& params) {
  return Generator(params).run();
}

}  // namespace scanc::gen
