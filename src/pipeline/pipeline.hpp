// The staged SOFIA toolchain facade: one session object that owns the
// paper's §III installation flow (assemble → normalize/pack → MAC →
// CTR-encrypt) and §IV evaluation flow (run vanilla vs. SOFIA, compare) end
// to end, parameterized by a single DeviceProfile so the toolchain and the
// simulated device can never disagree on cipher, keys, policy or
// granularity.
//
//   auto p = pipeline::Pipeline::from_workload("fib", /*seed=*/1, /*size=*/8);
//   const auto& prog  = p.program();        // assembled once, cached
//   const auto& plain = p.vanilla_image();  // sequential baseline link
//   const auto& hard  = p.hardened();       // full SOFIA transform
//   const auto& run   = p.run();            // execute on the SOFIA device
//   const auto  m     = p.measure();        // vanilla-vs-SOFIA measurement
//
// Stages are computed lazily, cached, and every failure is rethrown as a
// sofia::Error carrying uniform context: "pipeline[<name>]/<stage>: ...".
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "assembler/image.hpp"
#include "assembler/program.hpp"
#include "hw/hw_model.hpp"
#include "pipeline/device_profile.hpp"
#include "sim/backend.hpp"
#include "support/error.hpp"
#include "verify/verify.hpp"
#include "workloads/workloads.hpp"
#include "xform/transform.hpp"

namespace sofia::pipeline {

/// One vanilla-vs-SOFIA comparison of the same program (the paper's
/// headline metrics). Produced by Pipeline::measure().
struct Measurement {
  std::string name;
  std::uint32_t vanilla_text_bytes = 0;
  std::uint32_t sofia_text_bytes = 0;
  std::uint64_t vanilla_cycles = 0;
  std::uint64_t sofia_cycles = 0;
  sim::SimStats vanilla_stats;
  sim::SimStats sofia_stats;

  double size_ratio() const {
    return static_cast<double>(sofia_text_bytes) / vanilla_text_bytes;
  }
  double cycle_overhead_pct() const {
    return hw::overhead_pct(static_cast<double>(vanilla_cycles),
                            static_cast<double>(sofia_cycles));
  }
  /// Total execution-time overhead using the hardware model's clocks.
  double time_overhead_pct(const hw::HwModel& model, int unroll_cycles) const {
    const double tv =
        hw::execution_time_ms(vanilla_cycles, model.vanilla().clock_mhz);
    const double ts = hw::execution_time_ms(
        sofia_cycles, model.sofia(unroll_cycles).clock_mhz);
    return hw::overhead_pct(tv, ts);
  }
};

class Pipeline {
 public:
  // ---- entry points -------------------------------------------------------

  /// Session over an SR32 source string. `name` labels error context.
  static Pipeline from_source(std::string source,
                              DeviceProfile profile = DeviceProfile::paper_default(),
                              std::string name = "program");

  /// Session over an SR32 source file (reads it eagerly; the read is the
  /// first stage and reports I/O failures with pipeline context).
  static Pipeline from_source_file(const std::string& path,
                                   DeviceProfile profile = DeviceProfile::paper_default());

  /// Session over a registered workload: source generated from (seed, size)
  /// and the golden model's output installed as the expected output.
  static Pipeline from_workload(const workloads::WorkloadSpec& spec,
                                std::uint64_t seed, std::uint32_t size,
                                DeviceProfile profile = DeviceProfile::paper_default());

  /// Registry-lookup convenience; throws for unknown workload names.
  static Pipeline from_workload(std::string_view workload_name,
                                std::uint64_t seed, std::uint32_t size,
                                DeviceProfile profile = DeviceProfile::paper_default());

  /// Session over a saved image (sofia_run's path). Toolchain stages
  /// (program()/vanilla_image()/hardened()) are unavailable and throw;
  /// image() and run() execute the loaded binary under the profile.
  static Pipeline from_image_file(const std::string& path,
                                  DeviceProfile profile = DeviceProfile::paper_default());

  /// Session over an in-memory image.
  static Pipeline from_image(assembler::LoadImage image,
                             DeviceProfile profile = DeviceProfile::paper_default(),
                             std::string name = "image");

  // ---- session configuration (set before the affected stage runs) --------

  const std::string& name() const { return name_; }
  const DeviceProfile& profile() const { return profile_; }

  /// Replace the base simulator configuration (timing knobs, budgets,
  /// fault injection). Keys/policy are stamped from the profile at run
  /// time. Invalidates any cached runs.
  void set_sim_config(sim::SimConfig config);
  const sim::SimConfig& sim_config() const { return base_config_; }

  /// Replace the memory layout used by both back ends. Invalidates cached
  /// images and runs.
  void set_memory_layout(assembler::MemoryLayout mem);

  /// Expected console output (from_workload installs the golden model's).
  void set_expected_output(std::string expected);
  bool has_expected_output() const { return expected_.has_value(); }

  // ---- staged products, lazily computed and cached ------------------------

  /// The assembled program (stage "program").
  const assembler::Program& program();

  /// Sequential plaintext baseline (stage "link-vanilla").
  const assembler::LoadImage& vanilla_image();

  /// The full §III transformation (stage "transform").
  const xform::TransformResult& hardened();

  /// The session's device binary: hardened().image for source/workload
  /// sessions, the loaded image for image sessions.
  const assembler::LoadImage& image();

  /// Execute the device binary on the simulated core (stage "run"); cached.
  const sim::RunResult& run();

  /// Execute the vanilla baseline (stage "run-vanilla"); cached.
  const sim::RunResult& run_vanilla();

  /// Run both cores, validate outputs against the expected output (or
  /// against each other when none is installed), and combine the numbers.
  /// Throws sofia::Error on any functional mismatch — a measurement must
  /// never report numbers for a broken run (stage "measure").
  Measurement measure();

  /// Same, against a vanilla run the caller already has: a run_vanilla()
  /// of another session with the same program, memory layout, backend and
  /// sim::vanilla_view() of the config (driver::run_sweep shares one per
  /// group of such jobs). measure() is measure(run_vanilla()).
  Measurement measure(const sim::RunResult& vanilla);

  /// Statically verify the session's device binary against the full SOFIA
  /// contract (stage "lint"): seals re-derived per scheme, edge/entry
  /// consistency, block policy, metadata. Source/workload sessions check
  /// against the transform's program model; image sessions get the
  /// image-only metadata subset. Defects become findings, never throws.
  verify::Report lint();

  /// Lint an arbitrary image against this session's program model and
  /// profile — the static counterpart of run_image() for tampered variants.
  verify::Report lint_image(const assembler::LoadImage& img);

  /// The verifier's view of this session's profile (keys + scheme +
  /// granularity + policy).
  verify::DeviceSpec device_spec() const;

  /// Execute an arbitrary image under this session's device configuration —
  /// the attack/fault harnesses use it to run tampered variants of image().
  sim::RunResult run_image(const assembler::LoadImage& img) const;

  /// Same, with an explicit base configuration (per-trial fault injection);
  /// the profile's keys/policy are stamped on before running.
  sim::RunResult run_image(const assembler::LoadImage& img,
                           sim::SimConfig config) const;

  /// The effective device configuration (base config + profile stamp).
  sim::SimConfig effective_sim_config() const;

  /// The execution backend this session runs on, resolved once from
  /// profile().backend through sim::backend_registry(). Every run()/
  /// run_vanilla()/run_image() call executes through this object — no
  /// consumer constructs a simulator directly.
  const sim::Backend& backend() const;

  /// The protection scheme this session seals and opens blocks with,
  /// resolved from profile().scheme through scheme::scheme_registry().
  /// Unknown names throw with "pipeline[name]/scheme:" context (the same
  /// error transform/run would hit, surfaced earlier and cleaner).
  const scheme::ProtectionScheme& scheme() const;

 private:
  Pipeline(std::string name, DeviceProfile profile);

  [[noreturn]] void fail(const char* stage, const std::string& what) const;
  template <typename F>
  auto run_stage(const char* stage, F&& f) -> decltype(f());

  std::string name_;
  DeviceProfile profile_;
  crypto::KeySet keys_;  ///< profile_.keys(), derived once
  std::unique_ptr<sim::Backend> backend_;  ///< resolved in the ctor; null
                                           ///< only for unknown names
  sim::SimConfig base_config_;
  assembler::MemoryLayout mem_;

  std::optional<std::string> source_;
  std::optional<std::string> expected_;
  std::optional<assembler::Program> program_;
  std::optional<assembler::LoadImage> vanilla_image_;
  std::optional<xform::TransformResult> hardened_;
  std::optional<verify::ProgramModel> model_;  ///< lint view of hardened_
  std::optional<assembler::LoadImage> loaded_image_;  ///< image sessions
  std::optional<sim::RunResult> run_;
  std::optional<sim::RunResult> vanilla_run_;
};

}  // namespace sofia::pipeline
