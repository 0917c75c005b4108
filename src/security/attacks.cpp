#include "security/attacks.hpp"

#include "assembler/link.hpp"
#include "campaign/campaign.hpp"
#include "pipeline/pipeline.hpp"

namespace sofia::security {

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
  config.max_cycles = campaign::kTrialBudget;
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
