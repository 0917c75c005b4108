// The fast functional backend: executes the same ISA and enforces the
// same SOFIA integrity semantics as the cycle-accurate machine. Both are
// shells around the same two definitions: the architectural core
// (sim::Core, sim/core.hpp) executes every instruction, and block
// admission (sim::admit, sim/admission.hpp) vets every entered block —
// fetched, decrypted with its control-flow-dependent counters, verified by
// the protection scheme, and checked against the placement rules, with any
// violation pulling the reset line. What this backend leaves out is the
// micro-architecture: no I-cache, no fetch queue, no cipher-engine
// scheduling, no store gate. Control flow is purely architectural (no
// fall-through speculation), and blocks admitted once are cached by
// (entry word, prevPC) so loop bodies decrypt and MAC exactly once.
//
// Consequences, documented as contract:
//  * stats.cycles is the retired instruction count (capabilities()
//    advertises cycle_accurate = false); SimConfig::max_cycles bounds it.
//  * stats counts only architecturally demanded work: ctr/cbc ops and
//    verifications for blocks actually entered, once per distinct
//    (entry, prevPC) pair — a lower bound on what the device performs.
//  * Fault injection (SimConfig::fault) flips the N-th word this backend
//    fetches; the block cache is bypassed while a fault is armed so every
//    block entry refetches.
//  * Stores into the text section invalidate the block cache, so
//    self-modifying (i.e. self-tampering) code still resets exactly like
//    the live-fetching cycle machine.
#pragma once

#include "sim/backend.hpp"

namespace sofia::sim {

inline constexpr std::string_view kFunctionalBackendDescription =
    "architectural interpreter, full integrity checks, no timing";

class FunctionalBackend final : public Backend {
 public:
  std::string_view name() const override { return "functional"; }
  std::string_view describe() const override {
    return kFunctionalBackendDescription;
  }
  BackendCapabilities capabilities() const override {
    return {/*cycle_accurate=*/false, /*models_microarchitecture=*/false};
  }
  RunResult run(const assembler::LoadImage& image,
                const SimConfig& config) const override;
};

}  // namespace sofia::sim
