// E11 — attack/detection matrix: every attack class from §I/§IV against the
// SOFIA device, run once per registered protection scheme, plus the ROP/JOP
// demonstrations against both cores. Every attack is a campaign
// MutationRecord run on a campaign::Target (the demos' also on its vanilla
// twin); the matrix's are judged by campaign::classify. `--json PATH`
// writes the full matrix as a deterministic "sofia-attack-matrix-v3"
// document (fixed seeds, fixed iteration order), so two runs diff
// byte-identically. `--json -` streams the document to stdout (the
// human-readable matrix moves to stderr).
//
//   bench_attack_matrix [--flips N] [--json PATH]
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "driver/tables.hpp"
#include "scheme/scheme.hpp"
#include "support/cli.hpp"
#include "support/io.hpp"
#include "support/json.hpp"

namespace {

using namespace sofia;
using campaign::Mutation;
using campaign::MutationKind;
using campaign::TrialClass;

/// The hand-picked attacks every scheme faces, in report order.
const Mutation kAttacks[] = {
    {MutationKind::kBitFlip, 2, 9},
    {MutationKind::kBitFlip, 0, 30},
    {MutationKind::kWordPatch, 4, 0x34000001},
    {MutationKind::kWordRelocate, 3, 11},
    {MutationKind::kBlockSplice, 0, 2},
    {MutationKind::kCrossVersionSplice, 1},
};

/// Version nonce of the donor build the cross-version splice grafts from.
constexpr std::uint16_t kOtherVersion = 0xBEEF;

struct Attack {
  Mutation mutation;
  sim::RunResult run;
  TrialClass cls = TrialClass::kHarmless;
  bool output_clean = false;
};

struct FlipTally {
  std::uint64_t detected = 0;
  std::uint64_t harmless = 0;
  std::uint64_t breached = 0;
};

struct SchemeRow {
  std::string scheme;
  bool authenticated = false;
  std::vector<Attack> attacks;
  FlipTally flips;
};

void report(std::FILE* log, const Attack& a) {
  const bool detected = a.cls == TrialClass::kDetected;
  std::fprintf(log, "%-44s %-10s %-16s %8llu\n",
               a.mutation.describe().c_str(),
               detected ? "yes"
                        : (a.cls == TrialClass::kHarmless ? "no effect" : "NO"),
               detected ? std::string(to_string(a.run.reset.cause)).c_str()
                        : "-",
               static_cast<unsigned long long>(detected ? a.run.reset.cycle
                                                        : 0));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sofia;
  std::uint32_t flip_count = 200;
  std::string json_path;
  cli::Parser parser("bench_attack_matrix",
                     "attack/detection matrix per protection scheme");
  parser
      .option("--flips", flip_count, "N",
              "random single-bit flip trials per scheme (default 200)")
      .option("--json", json_path, "PATH",
              "write the matrix document ('-' = stdout)");
  parser.parse_or_exit(argc, argv);

  // With the document streaming on stdout, the human-readable matrix moves
  // to stderr so the output stream stays byte-clean for collectors.
  std::FILE* log = json_path == "-" ? stderr : stdout;

  const auto keys = crypto::KeySet::example(crypto::CipherKind::kRectangle80);
  const char* victim = R"(
main:
  li r1, 0
  li r2, 16
loop:
  call work
  addi r2, r2, -1
  bnez r2, loop
  la r3, out
  sw r1, 0(r3)
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
work:
  addi r1, r1, 3
  beqz r1, never
  addi r1, r1, 1
never:
  ret
.data
out: .word 0
)";

  // Breaches only gate the exit code for authenticated schemes: the "null"
  // baseline is *expected* to let flips through — that contrast is the
  // point of running the matrix across the scheme axis.
  std::uint64_t auth_breached = 0;
  std::vector<SchemeRow> rows;
  for (const auto& entry : scheme::scheme_registry()) {
    SchemeRow row;
    row.scheme = std::string(entry.name());
    row.authenticated = entry.traits().authenticated;

    pipeline::DeviceProfile profile = pipeline::DeviceProfile::with_keys(keys);
    profile.scheme = row.scheme;
    const campaign::Target target(victim, profile, kOtherVersion);
    const std::string& clean_output = target.clean_run().output;

    std::fprintf(log, "Attack matrix on the SOFIA device — scheme %s (%s)\n",
                row.scheme.c_str(),
                row.authenticated ? "authenticated" : "encrypt-only");
    driver::print_rule(86, log);
    std::fprintf(log, "%-44s %-10s %-16s %8s\n", "attack", "detected", "cause",
                "at cycle");
    driver::print_rule(86, log);
    for (const Mutation& m : kAttacks) {
      Attack a{m, target.execute({m})};
      a.cls = campaign::classify(a.run, clean_output);
      a.output_clean = a.run.output == clean_output;
      report(log, a);
      row.attacks.push_back(std::move(a));
    }

    // Random single-bit flips, tallied as they run. A flip counts as
    // harmless only when the run completes with the clean output; a run
    // that prints it and then fails to complete is a breach.
    Rng rng(42);  // fresh per scheme: rows are independent of scheme order
    for (std::uint64_t i = 0; i < flip_count; ++i) {
      const auto word = rng.next_below(target.geometry().text_words);
      const auto bit = rng.next_below(32);
      const auto run = target.execute({{MutationKind::kBitFlip, word, bit}});
      switch (campaign::classify(run, clean_output)) {
        case TrialClass::kDetected: ++row.flips.detected; break;
        case TrialClass::kHarmless: ++row.flips.harmless; break;
        case TrialClass::kEscaped: ++row.flips.breached; break;
      }
    }
    driver::print_rule(86, log);
    std::fprintf(log,
        "random single-bit flips: %llu detected, %llu dead-code (no effect), "
        "%llu breached / %llu%s\n\n",
        static_cast<unsigned long long>(row.flips.detected),
        static_cast<unsigned long long>(row.flips.harmless),
        static_cast<unsigned long long>(row.flips.breached),
        static_cast<unsigned long long>(flip_count),
        row.authenticated ? "" : "  (breaches expected: no verification)");
    if (row.authenticated) auth_breached += row.flips.breached;
    rows.push_back(std::move(row));
  }

  // The code-reuse demos: one retarget-indirect record overwriting the
  // victim's code pointer (its first data word) with the gadget's address,
  // on both cores, under Alg. 1's per-word CTR.
  pipeline::DeviceProfile demo_profile =
      pipeline::DeviceProfile::with_keys(keys);
  demo_profile.granularity = crypto::Granularity::kPerWord;
  const auto smash = [](std::uint32_t gadget) -> campaign::MutationRecord {
    return {{MutationKind::kRetargetIndirect, 0, gadget}};
  };

  std::fprintf(log, "ROP demonstration (return address smashed toward a store gadget)\n");
  driver::print_rule(86, log);
  const campaign::Target rop(campaign::kRopVictim, demo_profile);
  const bool rop_vanilla_breached =
      rop.execute_vanilla(smash(rop.aim_vanilla("gadget")))
          .output.find("6666") != std::string::npos;
  const auto rop_attacked = rop.execute(smash(rop.aim("gadget")));
  const bool rop_detected =
      rop_attacked.status == sim::RunResult::Status::kReset;
  std::fprintf(log, "%-24s clean output: %-8s attacked: %s\n", "vanilla LEON3",
              "1111",
              rop_vanilla_breached ? "GADGET FIRED (6666)"
                                   : "gadget did not fire");
  std::fprintf(log, "%-24s clean output: %-8s attacked: %s (cause %s)\n", "SOFIA",
              "1111", rop_detected ? "RESET before gadget" : "NOT DETECTED",
              std::string(to_string(rop_attacked.reset.cause)).c_str());

  std::fprintf(log, "\nJOP demonstration (function-pointer table overwritten in data)\n");
  driver::print_rule(86, log);
  const campaign::Target jop(campaign::kJopVictim, demo_profile);
  const bool jop_vanilla_breached =
      jop.execute_vanilla(smash(jop.aim_vanilla("gadget")))
          .output.find("7777") != std::string::npos;
  const bool jop_trapped =
      jop.execute(smash(jop.aim("gadget"))).output.empty();
  std::fprintf(log, "%-24s attacked: %s\n", "vanilla LEON3",
              jop_vanilla_breached ? "GADGET FIRED (7777)"
                                   : "gadget did not fire");
  std::fprintf(log, "%-24s attacked: %s\n", "SOFIA",
              jop_trapped ? "dispatch TRAP, gadget never ran"
                          : "NOT DETECTED");

  if (!json_path.empty()) {
    json::Writer w(2);
    w.begin_object();
    w.member("schema", "sofia-attack-matrix-v3");
    w.member("flip_trials", static_cast<std::uint64_t>(flip_count));
    w.key("schemes").begin_array();
    for (const auto& row : rows) {
      w.begin_object();
      w.member("scheme", row.scheme);
      w.member("authenticated", row.authenticated);
      w.key("attacks").begin_array();
      for (const auto& a : row.attacks) {
        const bool detected = a.cls == TrialClass::kDetected;
        w.begin_object();
        w.member("name", a.mutation.describe());
        w.member("detected", detected);
        w.member("output_clean", a.output_clean);
        if (detected) {
          w.member("cause", to_string(a.run.reset.cause));
          w.member("cycle", a.run.reset.cycle);
        }
        w.end_object();
      }
      w.end_array();
      w.key("random_flips").begin_object();
      w.member("detected", row.flips.detected);
      w.member("harmless", row.flips.harmless);
      w.member("breached", row.flips.breached);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.key("rop").begin_object();
    w.member("vanilla_breached", rop_vanilla_breached);
    w.member("sofia_detected", rop_detected);
    w.end_object();
    w.key("jop").begin_object();
    w.member("vanilla_breached", jop_vanilla_breached);
    w.member("sofia_trapped", jop_trapped);
    w.end_object();
    w.end_object();
    io::emit_document(json_path, w.str() + "\n");
    if (json_path != "-") std::fprintf(log, "\nwrote %s\n", json_path.c_str());
  }

  return (auth_breached == 0 && rop_detected && jop_trapped &&
          rop_vanilla_breached && jop_vanilla_breached)
             ? 0
             : 1;
}
