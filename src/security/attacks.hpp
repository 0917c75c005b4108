// Attack harness (paper §IV-A): concrete code-injection and code-reuse
// attacks mounted against a transformed binary, run on the simulated SOFIA
// device. An attack counts as *detected* when the device pulls the reset
// line before any externally visible effect (the paper's criterion: no
// tampered store may reach the MA stage).
//
// The same attacks run against the vanilla core demonstrate the baseline's
// vulnerability — e.g. the ROP-style demo corrupts control flow and fires
// its "disable the brakes" store on vanilla, and resets on SOFIA.
#pragma once

#include <string>
#include <vector>

#include "campaign/mutation.hpp"
#include "crypto/key_set.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"
#include "xform/transform.hpp"

namespace sofia::security {

struct AttackOutcome {
  std::string name;
  sim::RunResult run;
  bool detected = false;         ///< device reset before completing
  bool output_clean = false;     ///< console output identical to clean run
};

/// Fixture: one program transformed once (through a pipeline::Pipeline
/// session), attacked many ways.
class AttackHarness {
 public:
  /// The device under attack is described by one DeviceProfile.
  AttackHarness(std::string source, pipeline::DeviceProfile profile,
                sim::SimConfig base_config = {});

  // Accessors delegate to the session's cached stages (computed in the
  // constructor) — one copy of the hardened image, owned by the pipeline.
  const xform::TransformResult& transformed() const { return pipeline_.hardened(); }
  const sim::RunResult& clean_run() const { return pipeline_.run(); }

  /// Code injection: flip one ciphertext bit.
  AttackOutcome flip_bit(std::uint32_t word_index, unsigned bit) const;

  /// Code injection: overwrite one ciphertext word.
  AttackOutcome patch_word(std::uint32_t word_index, std::uint32_t value) const;

  /// Instruction relocation: move an encrypted word elsewhere in the text
  /// (defeats naive ECB-style instruction-set randomization).
  AttackOutcome relocate_word(std::uint32_t from_index,
                              std::uint32_t to_index) const;

  /// Code reuse at block granularity: copy a whole encrypted block over
  /// another (block splicing).
  AttackOutcome splice_block(std::uint32_t from_block,
                             std::uint32_t to_block) const;

  /// Cross-version replay: substitute one block with the same block from a
  /// binary built under a different version nonce omega.
  AttackOutcome cross_version_splice(std::uint16_t other_omega,
                                     std::uint32_t block_index) const;

  /// Run `count` random single-bit flips; returns the outcomes.
  std::vector<AttackOutcome> random_bit_flips(Rng& rng, int count) const;

 private:
  AttackOutcome run_tampered(std::string name,
                             assembler::LoadImage image) const;
  /// Apply one campaign mutation to a fresh image copy and run it — the
  /// one-shot attacks share the campaign engine's tamper primitives.
  AttackOutcome run_mutated(std::string name, const campaign::Mutation& m,
                            const assembler::LoadImage* donor = nullptr) const;

  std::string source_;
  /// mutable: the lazy stage accessors are non-const but cached — the
  /// constructor forces them, so const methods only ever hit the cache.
  mutable pipeline::Pipeline pipeline_;
};

/// The ROP-style demonstration (paper §IV-A-2): a victim with a
/// stack-smash-like vulnerability that lets attacker-controlled input
/// overwrite a return address, aimed at a store "gadget" that must never
/// execute (the paper's disable-the-brakes store). Returns the outcome on
/// the SOFIA device; `vanilla_outcome` shows the same attack succeeding on
/// the unprotected core.
struct RopDemo {
  sim::RunResult vanilla_clean;
  sim::RunResult vanilla_attacked;   ///< gadget fires: output contains 6666
  sim::RunResult sofia_clean;
  sim::RunResult sofia_attacked;     ///< must reset before the gadget store
};

RopDemo run_rop_demo(const crypto::KeySet& keys);

/// The JOP-style demonstration: the victim dispatches through a
/// function-pointer table in (writable) data; the attacker overwrites a
/// table entry with the address of a store gadget outside the dispatch's
/// static target set. On the vanilla core the gadget fires; on SOFIA the
/// devirtualized dispatch finds no matching static target and falls into
/// its trap before any gadget instruction executes.
struct JopDemo {
  sim::RunResult vanilla_clean;
  sim::RunResult vanilla_attacked;  ///< gadget fires: output contains 7777
  sim::RunResult sofia_clean;
  sim::RunResult sofia_attacked;    ///< trap: halts without gadget output
};

JopDemo run_jop_demo(const crypto::KeySet& keys);

}  // namespace sofia::security
