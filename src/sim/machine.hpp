// Top-level simulator: wires the architectural core (sim/core.hpp), the
// I-cache, the cipher engine, the selected front end (vanilla or SOFIA,
// from the image) and the execute-side timing together, and runs an image
// to completion.
#pragma once

#include "assembler/image.hpp"
#include "sim/config.hpp"

namespace sofia::sim {

class BlockStore;

/// Run a loaded image under the given configuration. For SOFIA images the
/// configured device keys and block policy must match the ones the binary
/// was transformed with — a mismatch behaves exactly like tampering (the
/// device resets), which is itself the paper's security property.
///
/// This is the cycle-accurate machine, i.e. the implementation behind the
/// "cycle" entry of sim::backend_registry() (sim/backend.hpp). Consumers
/// outside src/sim should route through the registry (via
/// pipeline::Pipeline), not call this directly — only the simulator's own
/// tests and the cipher microbench are expected here.
///
/// `store`, when given, holds opened blocks that outlive the run
/// (sim/admission.hpp); it never changes the result. Neither does tracing,
/// although an untraced SOFIA run replays repeated block segments from a
/// per-run memo instead of stepping their cycles (machine.cpp). Throws
/// sofia::Error for a configuration no run can make progress under (a
/// zero-entry fetch queue).
RunResult run_image(const assembler::LoadImage& image, const SimConfig& config,
                    BlockStore* store = nullptr);

}  // namespace sofia::sim
