// Attack demo: what SOFIA detects, narrated.
//
//   * code injection  — flip/patch ciphertext bits;
//   * code relocation — move valid ciphertext to another address;
//   * version replay  — graft a block from a different program version;
//   * code reuse      — smash a return address toward a store gadget
//                       (succeeds on the vanilla core, resets on SOFIA).
//
// Build & run:  ./build/examples/attack_demo
#include <cstdio>

#include "campaign/campaign.hpp"

namespace {

using namespace sofia;
using campaign::MutationKind;

/// Mount one tamper on the target and narrate the verdict.
void narrate(const campaign::Target& target, const campaign::Mutation& m) {
  const auto run = target.execute({m});
  std::printf("  %-42s -> ", m.describe().c_str());
  switch (campaign::classify(run, target.clean_run().output)) {
    case campaign::TrialClass::kDetected:
      std::printf("RESET at cycle %llu (%s)\n",
                  static_cast<unsigned long long>(run.reset.cycle),
                  to_string(run.reset.cause).data());
      break;
    case campaign::TrialClass::kHarmless:
      std::printf("no effect (tampered a block the run never fetches)\n");
      break;
    case campaign::TrialClass::kEscaped:
      std::printf("!!! UNDETECTED CORRUPTION (output '%s')\n",
                  run.output.c_str());
      break;
  }
}

}  // namespace

int main() {
  // The device under attack: paper defaults (RECTANGLE-80, example keys).
  const auto profile = pipeline::DeviceProfile::paper_default();

  const char* victim = R"(
main:
  li r1, 0
  li r2, 10
loop:
  call work
  addi r2, r2, -1
  bnez r2, loop
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
work:
  addi r1, r1, 7
  ret
)";

  // The donor is the same victim built as another version (omega 0x0001).
  const campaign::Target target(victim, profile, 0x0001);
  std::printf("victim program runs clean: output = %s\n",
              target.clean_run().output.c_str());

  std::printf("\ncode injection (the device decrypts, then the run-time MAC "
              "fails):\n");
  narrate(target, {MutationKind::kBitFlip, 2, 0});
  // An attacker-chosen 'addi'.
  narrate(target, {MutationKind::kWordPatch, 5, 0x0D400007});
  std::printf("\ncode relocation (CTR counters bind words to addresses):\n");
  narrate(target, {MutationKind::kWordRelocate, 2, 10});
  narrate(target, {MutationKind::kBlockSplice, 0, 1});
  std::printf("\ncross-version replay (the nonce omega separates versions):\n");
  narrate(target, {MutationKind::kCrossVersionSplice, 0});

  std::printf("\nreturn-address smash toward a store gadget:\n");
  // One retarget-indirect record overwrites the victim's return-address
  // slot (its first data word) with the gadget's address; the attacker
  // knows each core's layout. The demo victim seals with per-word CTR.
  auto rop_profile = profile;
  rop_profile.granularity = crypto::Granularity::kPerWord;
  const campaign::Target rop(campaign::kRopVictim, rop_profile);
  const auto vanilla_clean = rop.execute_vanilla({});
  const auto vanilla_attacked = rop.execute_vanilla(
      {{MutationKind::kRetargetIndirect, 0, rop.aim_vanilla("gadget")}});
  const auto sofia_attacked =
      rop.execute({{MutationKind::kRetargetIndirect, 0, rop.aim("gadget")}});
  std::printf("  vanilla core: clean '%s' -> attacked '%s'  (gadget fired!)\n",
              vanilla_clean.output.substr(0, 4).c_str(),
              vanilla_attacked.output.substr(0, 4).c_str());
  std::printf("  SOFIA core:   clean '%s' -> attacked: %s, cause %s — the\n"
              "  gadget block was encrypted for its legitimate predecessor,\n"
              "  not for this return edge, so its MAC check fails before the\n"
              "  store can reach the MA stage.\n",
              rop.clean_run().output.substr(0, 4).c_str(),
              to_string(sofia_attacked.status).data(),
              to_string(sofia_attacked.reset.cause).data());
  return 0;
}
