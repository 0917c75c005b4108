#include "security/attacks.hpp"

#include "assembler/link.hpp"
#include "campaign/mutation.hpp"
#include "support/error.hpp"

namespace sofia::security {

namespace {

sim::SimConfig bounded(sim::SimConfig config) {
  // Attacked runs can loop on garbage; keep the budget bounded.
  if (config.max_cycles > 50'000'000) config.max_cycles = 50'000'000;
  return config;
}

pipeline::Pipeline attack_session(const std::string& source,
                                  pipeline::DeviceProfile profile,
                                  sim::SimConfig base_config) {
  auto p = pipeline::Pipeline::from_source(source, profile, "attack-victim");
  p.set_sim_config(bounded(std::move(base_config)));
  return p;
}

}  // namespace

AttackHarness::AttackHarness(std::string source,
                             pipeline::DeviceProfile profile,
                             sim::SimConfig base_config)
    : source_(std::move(source)),
      pipeline_(attack_session(source_, profile, std::move(base_config))) {
  pipeline_.hardened();  // force + cache the transform
  if (!pipeline_.run().ok())
    throw Error("attack harness: clean run failed: " +
                std::string(to_string(pipeline_.run().status)));
}

AttackOutcome AttackHarness::run_tampered(std::string name,
                                          assembler::LoadImage image) const {
  AttackOutcome outcome;
  outcome.name = std::move(name);
  outcome.run = pipeline_.run_image(image);
  outcome.detected = outcome.run.status == sim::RunResult::Status::kReset;
  outcome.output_clean = outcome.run.output == clean_run().output;
  return outcome;
}

AttackOutcome AttackHarness::run_mutated(std::string name,
                                         const campaign::Mutation& m,
                                         const assembler::LoadImage* donor) const {
  // The one-shot attacks are campaign mutations applied by hand: one
  // implementation of each tamper primitive, shared with the campaign
  // engine (campaign/mutation.cpp).
  auto image = transformed().image;
  sim::SimConfig scratch;  // the static kinds never touch the fault slot
  const campaign::ApplyContext ctx{pipeline_.profile().policy.words_per_block,
                                   donor};
  campaign::apply(m, image, scratch, ctx);
  return run_tampered(std::move(name), std::move(image));
}

AttackOutcome AttackHarness::flip_bit(std::uint32_t word_index,
                                      unsigned bit) const {
  return run_mutated(
      "flip-bit w" + std::to_string(word_index) + " b" + std::to_string(bit),
      {campaign::MutationKind::kBitFlip, word_index, bit});
}

AttackOutcome AttackHarness::patch_word(std::uint32_t word_index,
                                        std::uint32_t value) const {
  return run_mutated("patch-word w" + std::to_string(word_index),
                     {campaign::MutationKind::kWordPatch, word_index, value});
}

AttackOutcome AttackHarness::relocate_word(std::uint32_t from_index,
                                           std::uint32_t to_index) const {
  return run_mutated(
      "relocate-word " + std::to_string(from_index) + "->" +
          std::to_string(to_index),
      {campaign::MutationKind::kWordRelocate, from_index, to_index});
}

AttackOutcome AttackHarness::splice_block(std::uint32_t from_block,
                                          std::uint32_t to_block) const {
  return run_mutated(
      "splice-block " + std::to_string(from_block) + "->" +
          std::to_string(to_block),
      {campaign::MutationKind::kBlockSplice, from_block, to_block});
}

AttackOutcome AttackHarness::cross_version_splice(
    std::uint16_t other_omega, std::uint32_t block_index) const {
  // Build the same program as a different version (new omega), then graft
  // one of its blocks into the current binary.
  pipeline::DeviceProfile other_profile = pipeline_.profile();
  other_profile.omega_override = other_omega;
  auto other_session =
      pipeline::Pipeline::from_source(source_, other_profile, "other-version");
  const auto& other = other_session.hardened();
  return run_mutated(
      "cross-version-splice block " + std::to_string(block_index),
      {campaign::MutationKind::kCrossVersionSplice, block_index},
      &other.image);
}

std::vector<AttackOutcome> AttackHarness::random_bit_flips(Rng& rng,
                                                           int count) const {
  std::vector<AttackOutcome> outcomes;
  outcomes.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto word =
        static_cast<std::uint32_t>(rng.next_below(transformed().image.text.size()));
    const auto bit = static_cast<unsigned>(rng.next_below(32));
    outcomes.push_back(flip_bit(word, bit));
  }
  return outcomes;
}

// ---------------------------------------------------------------------------
// ROP demonstration.
// ---------------------------------------------------------------------------

namespace {

// The victim: `vuln` loads a return address from attacker-controlled input
// (modelling a stack smash) and returns through it. The gadget holds the
// store that must never execute. attacker_input == 0 means benign input.
constexpr char kVictimSource[] = R"(
main:
  call vuln
  li r10, 0xFFFF0008
  li r1, 1111
  sw r1, 0(r10)
  halt
vuln:
  la r2, attacker_input
  lw r3, 0(r2)
  beqz r3, benign
  mv lr, r3          ; smashed return address
benign:
  ret
gadget:              ; the "disable the brakes" store (paper §II-B-2)
  li r10, 0xFFFF0008
  li r1, 6666
  sw r1, 0(r10)
  halt
.data
attacker_input: .word 0
)";

void patch_attacker_input(assembler::LoadImage& image, std::uint32_t gadget_addr) {
  // attacker_input is the first data word.
  for (int i = 0; i < 4; ++i)
    image.data.at(static_cast<std::size_t>(i)) =
        static_cast<std::uint8_t>(gadget_addr >> (8 * i));
}

}  // namespace

namespace {

// The JOP victim: handler pointers live in writable data; the dispatch is
// annotated with the two legitimate handlers only.
constexpr char kJopVictimSource[] = R"(
main:
  la r2, table
  lw r4, 0(r2)        ; select handler 0
  li r1, 5
  .targets inc, dec
  jalr lr, r4
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
inc:
  addi r1, r1, 1
  ret
dec:
  addi r1, r1, -1
  ret
gadget:
  li r10, 0xFFFF0008
  li r1, 7777
  sw r1, 0(r10)
  halt
.data
table: .word inc, dec
)";

void patch_table_entry(assembler::LoadImage& image, std::uint32_t value) {
  for (int i = 0; i < 4; ++i)
    image.data.at(static_cast<std::size_t>(i)) =
        static_cast<std::uint8_t>(value >> (8 * i));
}

}  // namespace

namespace {

/// One pipeline session per demo victim: the historical demos ran with
/// Alg. 1's per-word CTR (xform::Options defaults), so the profile keeps
/// that granularity.
pipeline::Pipeline demo_session(const char* source,
                                const crypto::KeySet& keys) {
  auto profile = pipeline::DeviceProfile::with_keys(keys);
  profile.granularity = crypto::Granularity::kPerWord;
  auto p = pipeline::Pipeline::from_source(source, profile, "cf-attack-demo");
  sim::SimConfig config;
  config.max_cycles = 10'000'000;  // attacked runs can loop on garbage
  p.set_sim_config(config);
  return p;
}

}  // namespace

JopDemo run_jop_demo(const crypto::KeySet& keys) {
  JopDemo demo;
  auto session = demo_session(kJopVictimSource, keys);

  auto vanilla_img = session.vanilla_image();
  demo.vanilla_clean = session.run_vanilla();
  patch_table_entry(vanilla_img,
                    assembler::resolve_vanilla(session.program(), {}, "gadget"));
  demo.vanilla_attacked = session.run_image(vanilla_img);

  const auto& result = session.hardened();
  demo.sofia_clean = session.run();
  // The attacker aims at the gadget's canonical (placed) address — the same
  // value `la` would materialize, so the comparison chain sees a perfect
  // but unlisted pointer.
  const std::uint32_t gadget_index = result.normalized.text_labels.at("gadget");
  auto tampered = result.image;
  patch_table_entry(tampered, result.layout.placed_addr(gadget_index));
  demo.sofia_attacked = session.run_image(tampered);
  return demo;
}

RopDemo run_rop_demo(const crypto::KeySet& keys) {
  RopDemo demo;
  auto session = demo_session(kVictimSource, keys);

  // Vanilla target.
  auto vanilla_img = session.vanilla_image();
  demo.vanilla_clean = session.run_vanilla();
  patch_attacker_input(vanilla_img,
                       assembler::resolve_vanilla(session.program(), {}, "gadget"));
  demo.vanilla_attacked = session.run_image(vanilla_img);

  // SOFIA target: the attacker knows the transformed layout (Kerckhoffs)
  // and aims at the base of the gadget's block.
  const auto& result = session.hardened();
  demo.sofia_clean = session.run();
  const std::uint32_t gadget_index = result.normalized.text_labels.at("gadget");
  auto tampered = result.image;
  patch_attacker_input(tampered, result.layout.block_base_addr(gadget_index));
  demo.sofia_attacked = session.run_image(tampered);
  return demo;
}

}  // namespace sofia::security
