#include "sim/cycle_backend.hpp"

#include "sim/machine.hpp"

namespace sofia::sim {

RunResult CycleAccurateBackend::run(const assembler::LoadImage& image,
                                    const SimConfig& config) const {
  return run_image(image, config, &store_);
}

}  // namespace sofia::sim
