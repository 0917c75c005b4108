// sofia-report: one-command reproduction report. It runs each headline
// experiment once and prints it next to the paper: Table I, the §IV-A
// forgery cost (with its Monte-Carlo check in the full run), the ADPCM
// benchmark, the ROP/JOP demos, the attack matrix per protection scheme and
// a fetch-fault campaign (the paper's stated future work). Every attack is a
// campaign MutationRecord on a campaign::Target, judged by
// campaign::classify. Seeds are fixed, so two runs print the same bytes;
// `--quick` runs the same code at smaller sizes. The full paper tables are
// `sofia_sweep --matrix NAME` runs (README "Experiment sweeps").
//
// Exit code: 0 when the reproduction is healthy (no authenticated scheme
// lets a hand-picked attack or a random flip through, both demos breach the
// vanilla core and are stopped by SOFIA, and SOFIA detects every fetch
// fault), 1 otherwise, 2 on usage errors.
//
//   sofia_report [--quick] [--threads N]
#include <cstdio>
#include <string>
#include <utility>

#include "campaign/campaign.hpp"
#include "driver/sweep.hpp"
#include "driver/tables.hpp"
#include "hw/hw_model.hpp"
#include "scheme/scheme.hpp"
#include "security/forgery.hpp"
#include "sim/backend.hpp"
#include "support/cli.hpp"

namespace {

using namespace sofia;
using campaign::Mutation;
using campaign::MutationKind;
using campaign::TrialClass;

// ---- Table I and the forgery cost -------------------------------------------

void table1(const hw::HwModel& model) {
  const auto vanilla = model.vanilla();
  const auto sofia_hw = model.sofia(2);
  std::printf("%-44s %16s %16.0f\n", "Table I vanilla slices", "5889",
              vanilla.slices);
  std::printf("%-44s %16s %16.0f\n", "Table I SOFIA slices", "7551",
              sofia_hw.slices);
  std::printf("%-44s %16s %15.1f%%\n", "Table I area overhead", "+28.2%",
              hw::overhead_pct(vanilla.slices, sofia_hw.slices));
  std::printf("%-44s %16s %16.1f\n", "Table I SOFIA clock (MHz)", "50.1",
              sofia_hw.clock_mhz);
  std::printf("%-44s %16s %16.1f\n", "Table I vanilla clock (MHz)", "92.3",
              vanilla.clock_mhz);
  std::printf("%-44s %16s %16.2f\n", "Table I vanilla clock period (ns)", "-",
              vanilla.period_ns);
  std::printf("%-44s %16s %16.2f\n", "Table I SOFIA clock period (ns)", "-",
              sofia_hw.period_ns);
  std::printf("%-44s %16s %+15.1f%%\n", "Table I clock-period increase",
              "84.6% slower",
              hw::overhead_pct(vanilla.period_ns, sofia_hw.period_ns));
  const int rounds = model.round_instances(2);
  std::printf("  model: %.0f LEON3 + %.0f (%d rounds x %.0f) + %.0f "
              "key/MAC/control slices\n",
              model.vanilla_slices, rounds * model.round_slices, rounds,
              model.round_slices, model.fixed_slices);
  std::printf("  model: critical path %d x %.3f ns + %.1f ns = %.2f ns\n",
              rounds, model.round_delay_ns, model.cipher_overhead_ns,
              sofia_hw.period_ns);
  std::printf("%-44s %16s %16.0f\n", "SI forgery years (64b, 8cyc, 50MHz)",
              "46795", security::forgery_years(64, 8, 50e6));
  std::printf("%-44s %16s %16.0f\n", "CFI attack years (16 cyc/trial)", "93590",
              security::forgery_years(64, 16, 50e6));
}

/// The 2^(n-1) expected-trials law and the 2^-n undetected-tamper rate,
/// measured against the real CBC-MAC at reduced tag lengths from one
/// seeded stream.
void forgery_monte_carlo(const crypto::KeySet& keys) {
  std::printf("\nExpected-trials law, Monte-Carlo vs 2^(n-1) (real CBC-MAC, %s)\n",
              std::string(crypto::to_string(keys.kind)).c_str());
  driver::print_rule();
  std::printf("%-10s %14s %14s %10s\n", "tag bits", "measured", "expected",
              "ratio");
  driver::print_rule();
  Rng rng(20260610);
  for (const unsigned bits : {6u, 8u, 10u, 12u, 14u, 16u}) {
    const auto exp = security::run_forgery_experiment(keys, bits, 3000, rng);
    std::printf("%-10u %14.1f %14.1f %10.3f\n", bits, exp.mean_trials,
                exp.expected_trials, exp.mean_trials / exp.expected_trials);
  }
  driver::print_rule();

  std::printf("\nUndetected-tamper rate vs 2^-n (random single-word tampers)\n");
  driver::print_rule();
  std::printf("%-10s %10s %12s %14s %14s\n", "tag bits", "trials", "undetected",
              "measured", "expected");
  driver::print_rule();
  for (const unsigned bits : {4u, 6u, 8u, 10u, 64u}) {
    const auto exp = security::run_detection_experiment(keys, bits, 30000, rng);
    std::printf("%-10u %10llu %12llu %14.6f %14.6f\n", bits,
                static_cast<unsigned long long>(exp.trials),
                static_cast<unsigned long long>(exp.undetected),
                static_cast<double>(exp.undetected) /
                    static_cast<double>(exp.trials),
                bits >= 63 ? 0.0 : 1.0 / static_cast<double>(1ull << bits));
  }
  driver::print_rule();
}

// ---- code-reuse demos -------------------------------------------------------

/// The ROP and JOP demos: one retarget-indirect record overwrites the
/// victim's code pointer (its first data word) with the gadget's address,
/// on both cores, under Alg. 1's per-word CTR. True when both breach the
/// vanilla core and SOFIA stops both.
bool code_reuse_demos(const crypto::KeySet& keys) {
  auto profile = pipeline::DeviceProfile::with_keys(keys);
  profile.granularity = crypto::Granularity::kPerWord;
  const auto smash = [](std::uint32_t gadget) -> campaign::MutationRecord {
    return {{MutationKind::kRetargetIndirect, 0, gadget}};
  };

  const campaign::Target rop(campaign::kRopVictim, profile);
  const bool rop_breached = rop.execute_vanilla(smash(rop.aim_vanilla("gadget")))
                                .output.find("6666") != std::string::npos;
  const auto rop_attacked = rop.execute(smash(rop.aim("gadget")));
  const bool rop_detected =
      rop_attacked.status == sim::RunResult::Status::kReset;
  std::printf("%-44s %16s %16s\n", "ROP: vanilla breached / SOFIA reset",
              "detect", rop_breached && rop_detected ? "ok" : "FAIL");
  std::string clean = rop.clean_run().output;
  if (!clean.empty() && clean.back() == '\n') clean.pop_back();
  std::printf("  clean %s; vanilla: %s; SOFIA: %s (cause %s)\n", clean.c_str(),
              rop_breached ? "GADGET FIRED (6666)" : "gadget did not fire",
              rop_detected ? "RESET" : "NOT DETECTED",
              std::string(to_string(rop_attacked.reset.cause)).c_str());

  const campaign::Target jop(campaign::kJopVictim, profile);
  const bool jop_breached = jop.execute_vanilla(smash(jop.aim_vanilla("gadget")))
                                .output.find("7777") != std::string::npos;
  const bool jop_trapped = jop.execute(smash(jop.aim("gadget"))).output.empty();
  std::printf("%-44s %16s %16s\n", "JOP: vanilla breached / SOFIA trapped",
              "detect", jop_breached && jop_trapped ? "ok" : "FAIL");
  std::printf("  vanilla: %s; SOFIA: %s\n",
              jop_breached ? "GADGET FIRED (7777)" : "gadget did not fire",
              jop_trapped ? "dispatch TRAP, gadget never ran" : "NOT DETECTED");
  return rop_breached && rop_detected && jop_breached && jop_trapped;
}

// ---- attack matrix ----------------------------------------------------------

/// Verdicts over a run of random single-bit trials (printf-ready counts).
struct Tally {
  unsigned long long trials = 0;
  unsigned long long detected = 0;   ///< device reset
  unsigned long long harmless = 0;   ///< run completed with the clean output
  unsigned long long corrupted = 0;  ///< run completed with wrong output
  unsigned long long other = 0;      ///< simulator fault or blown budget
  unsigned long long escaped() const { return corrupted + other; }
};

/// Target::execute (the sealed image) or execute_vanilla (its vanilla twin).
using Execute = sim::RunResult (campaign::Target::*)(
    const campaign::MutationRecord&) const;

/// `trials` seeded mutations of `kind`, each at a random {index < span,
/// bit < 32}, run by `execute` on `target` and judged against
/// `clean_output`.
Tally random_bit_trials(const campaign::Target& target, Execute execute,
                        MutationKind kind, unsigned long long trials,
                        std::uint64_t span, const std::string& clean_output,
                        Rng& rng) {
  Tally tally;
  tally.trials = trials;
  for (unsigned long long t = 0; t < trials; ++t) {
    const std::uint64_t index = rng.next_below(span);
    const std::uint64_t bit = rng.next_below(32);
    const auto result = (target.*execute)({{kind, index, bit}});
    switch (campaign::classify(result, clean_output)) {
      case TrialClass::kDetected: ++tally.detected; break;
      case TrialClass::kHarmless: ++tally.harmless; break;
      case TrialClass::kEscaped:
        ++(result.ok() ? tally.corrupted : tally.other);
        break;
    }
  }
  return tally;
}

const char kMatrixVictim[] = R"(
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

/// The hand-picked attacks every scheme faces, in report order.
const Mutation kAttacks[] = {
    {MutationKind::kBitFlip, 2, 9},
    {MutationKind::kBitFlip, 0, 30},
    {MutationKind::kWordPatch, 4, 0x34000001},
    {MutationKind::kWordRelocate, 3, 11},
    {MutationKind::kBlockSplice, 0, 2},
    {MutationKind::kCrossVersionSplice, 1},
};

/// Every registered scheme against the hand-picked attacks (verdict, reset
/// cause and cycle) and `flips` random single-bit flips from a fresh
/// Rng(42), so a scheme's rows do not depend on the registry order. True
/// when no authenticated scheme lets one through; the encrypt-only "null"
/// baseline is expected to, and that contrast is the point of the matrix.
bool attack_matrix(const crypto::KeySet& keys, unsigned long long flips) {
  bool clean = true;
  for (const auto& entry : scheme::scheme_registry()) {
    const bool authenticated = entry.traits().authenticated;
    auto profile = pipeline::DeviceProfile::with_keys(keys);
    profile.scheme = std::string(entry.name());
    const campaign::Target target(kMatrixVictim, profile, 0xBEEF);
    const std::string& clean_output = target.clean_run().output;

    std::printf("\nAttack matrix on the SOFIA device — scheme %s (%s)\n",
                profile.scheme.c_str(),
                authenticated ? "authenticated" : "encrypt-only");
    driver::print_rule(86);
    std::printf("%-44s %-10s %-16s %8s\n", "attack", "detected", "cause",
                "at cycle");
    driver::print_rule(86);
    for (const Mutation& m : kAttacks) {
      const auto run = target.execute({m});
      const TrialClass cls = campaign::classify(run, clean_output);
      const bool detected = cls == TrialClass::kDetected;
      if (authenticated && cls == TrialClass::kEscaped) clean = false;
      std::printf("%-44s %-10s %-16s %8llu\n", m.describe().c_str(),
                  detected ? "yes"
                           : (cls == TrialClass::kHarmless ? "no effect" : "NO"),
                  detected ? std::string(to_string(run.reset.cause)).c_str()
                           : "-",
                  static_cast<unsigned long long>(detected ? run.reset.cycle
                                                           : 0));
    }

    // A flip counts as dead code only when the run completes with the
    // clean output; a run that prints it and then fails to complete is a
    // breach.
    Rng rng(42);
    const Tally tally = random_bit_trials(
        target, &campaign::Target::execute, MutationKind::kBitFlip, flips,
        target.geometry().text_words, clean_output, rng);
    if (authenticated && tally.escaped() != 0) clean = false;
    driver::print_rule(86);
    std::printf(
        "random single-bit flips: %llu detected, %llu dead-code (no effect), "
        "%llu breached / %llu%s\n",
        tally.detected, tally.harmless, tally.escaped(), tally.trials,
        authenticated ? "" : "  (breaches expected: no verification)");
  }
  return clean;
}

// ---- fetch faults -----------------------------------------------------------

const char kFaultVictim[] = R"(
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

void print_fault_table(const Tally& vanilla, const Tally& sofia_core) {
  std::printf("\nTransient instruction-fetch fault campaign (1 bit flip/run)\n");
  driver::print_rule(84);
  std::printf("%-10s %8s %10s %10s %12s %8s\n", "core", "trials", "detected",
              "masked", "corrupted", "other");
  driver::print_rule(84);
  for (const auto& [core, row] :
       {std::pair{"vanilla", vanilla}, std::pair{"SOFIA", sofia_core}})
    std::printf("%-10s %8llu %10llu %10llu %12llu %8llu\n", core, row.trials,
                row.detected, row.harmless, row.corrupted, row.other);
  driver::print_rule(84);
  std::printf("A flipped bit never survives SOFIA's decryption + MAC check, so\n"
              "fault attacks on the instruction stream reduce to MAC forgery.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::uint32_t threads = 1;
  std::string backend(sim::kDefaultBackend);
  std::string scheme(scheme::kDefaultScheme);

  cli::Parser parser("sofia_report",
                     "one-command paper-vs-measured health report");
  parser.flag("--quick", quick, "smaller workloads, attack and fault campaigns")
      .option("--threads", threads, "N",
              "worker threads for the measurements (default 1)")
      .choice("--backend", backend, sim::backend_names(),
              "execution backend for the ADPCM measurement (functional "
              "checks integrity only; its cycle numbers are not timing)")
      .choice("--scheme", scheme, scheme::scheme_names(),
              "protection scheme for the ADPCM measurement (the paper "
              "targets are sofia-cbcmac numbers)");
  parser.parse_or_exit(argc, argv);
  if (threads < 1) return parser.fail("--threads must be >= 1");
  const unsigned long long flips = quick ? 20 : 200;        // per scheme
  const unsigned long long fault_trials = quick ? 16 : 400;  // per core
  // The paper's cipher for every measurement.
  const auto keys = crypto::KeySet::example(crypto::CipherKind::kRectangle80);
  const hw::HwModel model;

  std::printf("SOFIA reproduction report\n");
  std::printf("=========================\n\n");
  std::printf("%-44s %16s %16s\n", "experiment", "paper", "measured");
  driver::print_rule(80);
  table1(model);

  // --- ADPCM (through the sweep driver) ----------------------------------------
  driver::SweepSpec adpcm = driver::matrix("adpcm");
  adpcm.size_override = quick ? 1024 : 8192;
  adpcm.configs.resize(1);  // the pipelined cipher engine
  adpcm = driver::with_backend(std::move(adpcm), backend);
  adpcm = driver::with_scheme(std::move(adpcm), scheme);
  const auto sweep = driver::run_sweep(adpcm, threads);
  if (!sweep.all_ok()) {
    for (const auto& job : sweep.jobs)
      if (!job.ok)
        std::fprintf(stderr, "sofia_report: %s failed: %s\n",
                     job.job.workload.c_str(), job.error.c_str());
    return 1;
  }
  double text_ratio = 0;
  double cyc = 0;
  double time_ovh = 0;
  const double n = static_cast<double>(sweep.jobs.size());
  for (const auto& job : sweep.jobs) {
    text_ratio += job.m.size_ratio() / n;
    cyc += job.m.cycle_overhead_pct() / n;
    time_ovh += job.m.time_overhead_pct(model, job.job.config.unroll_cycles()) / n;
  }
  std::printf("%-44s %16s %15.2fx\n", "ADPCM text expansion", "2.41x", text_ratio);
  // A backend without cycle accuracy reports instruction counts in
  // stats.cycles; presenting those next to the paper's timing targets
  // would be a lie, so the timing rows are suppressed.
  if (sim::make_backend(backend)->cycle_accurate()) {
    std::printf("%-44s %16s %15.1f%%\n", "ADPCM cycle overhead", "+13.7%", cyc);
    std::printf("%-44s %16s %15.1f%%\n", "ADPCM exec-time overhead", "+110%",
                time_ovh);
  } else {
    std::printf("%-44s %16s %16s\n", "ADPCM cycle overhead", "+13.7%", "n/a");
    std::printf("%-44s %16s %16s\n", "ADPCM exec-time overhead", "+110%", "n/a");
    std::printf("  (backend is not cycle-accurate; integrity checked only)\n");
  }

  const bool demos_ok = code_reuse_demos(keys);

  // Fetch faults over everything each core reads: the vanilla row runs the
  // victim's vanilla twin, the SOFIA row the sealed image, whose MAC words
  // are fetched too. One stream, vanilla row first.
  const campaign::Target fault_target(kFaultVictim,
                                      pipeline::DeviceProfile::with_keys(keys));
  Rng fault_rng(7777);
  const auto vanilla_clean = fault_target.execute_vanilla({});
  const auto& sofia_clean = fault_target.clean_run();
  const Tally vanilla_faults = random_bit_trials(
      fault_target, &campaign::Target::execute_vanilla,
      MutationKind::kFetchFault, fault_trials, vanilla_clean.stats.fetch_words,
      vanilla_clean.output, fault_rng);
  const Tally sofia_faults = random_bit_trials(
      fault_target, &campaign::Target::execute, MutationKind::kFetchFault,
      fault_trials, sofia_clean.stats.fetch_words + sofia_clean.stats.mac_words,
      sofia_clean.output, fault_rng);
  std::printf("%-44s %16s %10llu/%llu\n", "fetch faults detected (SOFIA)",
              "all", sofia_faults.detected, sofia_faults.trials);
  driver::print_rule(80);

  if (!quick) forgery_monte_carlo(keys);
  const bool matrix_ok = attack_matrix(keys, flips);
  print_fault_table(vanilla_faults, sofia_faults);
  std::printf(
      "\nFull ADPCM table: sofia_sweep --matrix adpcm; every paper table:\n"
      "sofia_sweep --matrix NAME (README \"Experiment sweeps\").\n");
  const bool faults_ok = sofia_faults.detected == sofia_faults.trials;
  return demos_ok && matrix_ok && faults_ok ? 0 : 1;
}
