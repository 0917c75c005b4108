// The cycle-accurate backend: the paper's §III/§IV device model (7-stage
// in-order core, I-cache, fetch queue, shared 2-cycle cipher engine,
// store gate), packaged behind the sim::Backend interface. The machine
// itself lives in machine.cpp; this class adapts sim::run_image() to the
// registry and owns the BlockStore its runs share (sim/admission.hpp).
#pragma once

#include "sim/admission.hpp"
#include "sim/backend.hpp"

namespace sofia::sim {

inline constexpr std::string_view kCycleBackendDescription =
    "cycle-accurate core + SOFIA front end (paper-faithful timing)";

class CycleAccurateBackend final : public Backend {
 public:
  std::string_view name() const override { return "cycle"; }
  std::string_view describe() const override {
    return kCycleBackendDescription;
  }
  BackendCapabilities capabilities() const override {
    return {/*cycle_accurate=*/true, /*models_microarchitecture=*/true};
  }
  RunResult run(const assembler::LoadImage& image,
                const SimConfig& config) const override;

  /// The opened blocks this instance's runs share.
  const BlockStore& block_store() const { return store_; }

 private:
  mutable BlockStore store_;
};

}  // namespace sofia::sim
