// Fault-injection campaign (the paper's stated future work): single
// transient bit flips on the instruction-fetch path, classified per core.
// On SOFIA every fault that isn't architecturally masked must end in a
// reset; on the vanilla core faults silently corrupt program output.
#include <cstdio>

#include "driver/tables.hpp"
#include "security/forgery.hpp"

int main() {
  using namespace sofia;
  const auto keys = crypto::KeySet::example(crypto::CipherKind::kRectangle80);
  const char* program = R"(
main:
  li r1, 0
  li r2, 24
loop:
  call work
  addi r2, r2, -1
  bnez r2, loop
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
work:
  addi r1, r1, 3
  beqz r1, never
  addi r1, r1, 1
never:
  ret
)";
  std::printf("Transient instruction-fetch fault campaign (1 bit flip/run)\n");
  driver::print_rule(84);
  std::printf("%-10s %8s %10s %10s %12s %8s\n", "core", "trials", "detected",
              "masked", "corrupted", "other");
  driver::print_rule(84);
  Rng rng(7777);
  for (const bool sofia_core : {false, true}) {
    const auto campaign = security::run_fault_campaign(
        program, keys, sofia_core, /*trials=*/400, rng);
    std::printf("%-10s %8llu %10llu %10llu %12llu %8llu\n",
                sofia_core ? "SOFIA" : "vanilla",
                static_cast<unsigned long long>(campaign.trials),
                static_cast<unsigned long long>(campaign.detected),
                static_cast<unsigned long long>(campaign.masked),
                static_cast<unsigned long long>(campaign.corrupted),
                static_cast<unsigned long long>(campaign.other));
  }
  driver::print_rule(84);
  std::printf("SOFIA detects every non-masked fetch fault: a flipped bit never\n"
              "survives decryption + MAC verification, so fault attacks on the\n"
              "instruction stream reduce to MAC forgery (46,795-year expected cost).\n");
  return 0;
}
