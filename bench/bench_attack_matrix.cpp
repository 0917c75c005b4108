// E11 — attack/detection matrix: every attack class from §I/§IV against the
// SOFIA device, run once per registered protection scheme, plus the ROP/JOP
// demonstrations against both cores. `--json PATH` writes the full matrix
// as a deterministic "sofia-attack-matrix-v2" document (fixed seeds, fixed
// iteration order), so two runs diff byte-identically. `--json -` streams
// the document to stdout (the human-readable matrix moves to stderr).
//
//   bench_attack_matrix [--flips N] [--json PATH]
#include <cstdio>
#include <string>
#include <vector>

#include "driver/tables.hpp"
#include "scheme/scheme.hpp"
#include "security/attacks.hpp"
#include "support/cli.hpp"
#include "support/io.hpp"
#include "support/json.hpp"

namespace {

using namespace sofia;

struct FlipTally {
  int detected = 0;
  int harmless = 0;
  int breached = 0;
};

struct SchemeRow {
  std::string scheme;
  bool authenticated = false;
  std::vector<security::AttackOutcome> attacks;
  FlipTally flips;
  int flip_trials = 0;
};

void report(std::FILE* log, const security::AttackOutcome& o) {
  std::fprintf(log, "%-44s %-10s %-16s %8llu\n", o.name.c_str(),
              o.detected ? "yes" : (o.output_clean ? "no effect" : "NO"),
              o.detected ? std::string(to_string(o.run.reset.cause)).c_str()
                         : "-",
              static_cast<unsigned long long>(
                  o.detected ? o.run.reset.cycle : 0));
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
  int auth_breached = 0;
  std::vector<SchemeRow> rows;
  for (const auto& entry : scheme::scheme_registry()) {
    SchemeRow row;
    row.scheme = std::string(entry.name);
    row.authenticated = entry.get().traits().authenticated;
    row.flip_trials = static_cast<int>(flip_count);

    pipeline::DeviceProfile profile = pipeline::DeviceProfile::with_keys(keys);
    profile.scheme = row.scheme;
    security::AttackHarness harness(victim, profile);

    std::fprintf(log, "Attack matrix on the SOFIA device — scheme %s (%s)\n",
                row.scheme.c_str(),
                row.authenticated ? "authenticated" : "encrypt-only");
    driver::print_rule(86, log);
    std::fprintf(log, "%-44s %-10s %-16s %8s\n", "attack", "detected", "cause",
                "at cycle");
    driver::print_rule(86, log);
    row.attacks.push_back(harness.flip_bit(2, 9));
    row.attacks.push_back(harness.flip_bit(0, 30));
    row.attacks.push_back(harness.patch_word(4, 0x34000001));
    row.attacks.push_back(harness.relocate_word(3, 11));
    row.attacks.push_back(harness.splice_block(0, 2));
    row.attacks.push_back(harness.cross_version_splice(0xBEEF, 1));
    for (const auto& o : row.attacks) report(log, o);

    Rng rng(42);  // fresh per scheme: rows are independent of scheme order
    const auto flips =
        harness.random_bit_flips(rng, static_cast<int>(flip_count));
    for (const auto& o : flips) {
      if (o.detected)
        ++row.flips.detected;
      else if (o.output_clean)
        ++row.flips.harmless;
      else
        ++row.flips.breached;
    }
    driver::print_rule(86, log);
    std::fprintf(log, 
        "random single-bit flips: %d detected, %d dead-code (no effect), "
        "%d breached / %zu%s\n\n",
        row.flips.detected, row.flips.harmless, row.flips.breached,
        flips.size(),
        row.authenticated ? "" : "  (breaches expected: no verification)");
    if (row.authenticated) auth_breached += row.flips.breached;
    rows.push_back(std::move(row));
  }

  std::fprintf(log, "ROP demonstration (return address smashed toward a store gadget)\n");
  driver::print_rule(86, log);
  const auto demo = security::run_rop_demo(keys);
  const bool rop_vanilla_breached =
      demo.vanilla_attacked.output.find("6666") != std::string::npos;
  const bool rop_detected =
      demo.sofia_attacked.status == sim::RunResult::Status::kReset;
  std::fprintf(log, "%-24s clean output: %-8s attacked: %s\n", "vanilla LEON3",
              "1111",
              rop_vanilla_breached ? "GADGET FIRED (6666)"
                                   : "gadget did not fire");
  std::fprintf(log, "%-24s clean output: %-8s attacked: %s (cause %s)\n", "SOFIA",
              "1111", rop_detected ? "RESET before gadget" : "NOT DETECTED",
              std::string(to_string(demo.sofia_attacked.reset.cause)).c_str());

  std::fprintf(log, "\nJOP demonstration (function-pointer table overwritten in data)\n");
  driver::print_rule(86, log);
  const auto jop = security::run_jop_demo(keys);
  const bool jop_vanilla_breached =
      jop.vanilla_attacked.output.find("7777") != std::string::npos;
  const bool jop_trapped = jop.sofia_attacked.output.empty();
  std::fprintf(log, "%-24s attacked: %s\n", "vanilla LEON3",
              jop_vanilla_breached ? "GADGET FIRED (7777)"
                                   : "gadget did not fire");
  std::fprintf(log, "%-24s attacked: %s\n", "SOFIA",
              jop_trapped ? "dispatch TRAP, gadget never ran"
                          : "NOT DETECTED");

  if (!json_path.empty()) {
    json::Writer w(2);
    w.begin_object();
    w.member("schema", "sofia-attack-matrix-v2");
    w.member("flip_trials", static_cast<std::uint64_t>(flip_count));
    w.key("schemes").begin_array();
    for (const auto& row : rows) {
      w.begin_object();
      w.member("scheme", row.scheme);
      w.member("authenticated", row.authenticated);
      w.key("attacks").begin_array();
      for (const auto& o : row.attacks) {
        w.begin_object();
        w.member("name", o.name);
        w.member("detected", o.detected);
        w.member("output_clean", o.output_clean);
        if (o.detected) {
          w.member("cause", to_string(o.run.reset.cause));
          w.member("cycle", o.run.reset.cycle);
        }
        w.end_object();
      }
      w.end_array();
      w.key("random_flips").begin_object();
      w.member("detected", static_cast<std::int64_t>(row.flips.detected));
      w.member("harmless", static_cast<std::int64_t>(row.flips.harmless));
      w.member("breached", static_cast<std::int64_t>(row.flips.breached));
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
