// Portable batch-engine instantiations and the runtime factory.
//
// This TU is compiled with the project's baseline flags; the AVX2 /
// AVX-512 instantiations live in their own TUs (batch_engine_avx2.cpp,
// batch_engine_avx512.cpp) compiled with -mavx2 / -mavx512f, so the
// baseline binary never contains wide instructions on its unconditional
// paths.  The factory trusts the SimdConfig it is given: resolve_simd()
// (sim/simd.hpp) only selects an intrinsic ISA the CPU reports and this
// build compiled.
#include "fault/batch_engine.hpp"

#include "fault/batch_engine_impl.hpp"
#include "fault/batch_engine_isa.hpp"

namespace scanc::fault {

std::unique_ptr<BatchEngine> make_batch_engine(
    const netlist::Circuit& circuit, const FaultList& faults,
    util::Bitset scan_mask, const sim::SimdConfig& cfg) {
  switch (cfg.isa) {
    case sim::SimdIsa::Avx2:
#if defined(SCANC_HAVE_AVX2_TU) && !defined(SCANC_FORCE_SCALAR_WIDE)
      return make_batch_engine_avx2(circuit, faults, std::move(scan_mask));
#else
      break;
#endif
    case sim::SimdIsa::Avx512:
#if defined(SCANC_HAVE_AVX512_TU) && !defined(SCANC_FORCE_SCALAR_WIDE)
      return make_batch_engine_avx512(circuit, faults,
                                      std::move(scan_mask));
#else
      break;
#endif
    case sim::SimdIsa::Portable:
      break;
  }
  if (cfg.bits <= 64) {
    return make_batch_engine_impl<std::uint64_t>(circuit, faults,
                                                 std::move(scan_mask));
  }
  if (cfg.bits >= 512) {
    return make_batch_engine_impl<sim::WideWord<8>>(circuit, faults,
                                                    std::move(scan_mask));
  }
  return make_batch_engine_impl<sim::WideWord<4>>(circuit, faults,
                                                  std::move(scan_mask));
}

}  // namespace scanc::fault
