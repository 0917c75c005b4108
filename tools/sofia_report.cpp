// sofia-report: one-command reproduction summary — runs the headline
// experiments (Table I, the ADPCM benchmark, the security analysis, a
// fault campaign) and prints a compact paper-vs-measured table. The full
// paper tables are `sofia_sweep --matrix NAME` runs (README "Experiment
// sweeps"); this is the "is the reproduction healthy?" view.
//
//   sofia_report [--quick] [--threads N]
#include <cstdio>
#include <string>

#include "campaign/campaign.hpp"
#include "driver/sweep.hpp"
#include "driver/tables.hpp"
#include "scheme/scheme.hpp"
#include "security/forgery.hpp"
#include "sim/backend.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace sofia;
  bool quick = false;
  std::uint32_t threads = 1;
  std::string backend(sim::kDefaultBackend);
  std::string scheme(scheme::kDefaultScheme);

  cli::Parser parser("sofia_report",
                     "one-command paper-vs-measured health report");
  parser.flag("--quick", quick, "smaller workloads and fault campaign")
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
  const std::uint32_t samples = quick ? 1024 : 8192;
  // The paper's cipher for every measurement.
  const auto keys = crypto::KeySet::example(crypto::CipherKind::kRectangle80);
  const hw::HwModel model;

  std::printf("SOFIA reproduction report\n");
  std::printf("=========================\n\n");

  // --- Table I ---------------------------------------------------------------
  const auto vanilla = model.vanilla();
  const auto sofia_hw = model.sofia(2);
  std::printf("%-44s %16s %16s\n", "experiment", "paper", "measured");
  driver::print_rule(80);
  std::printf("%-44s %16s %16.0f\n", "Table I vanilla slices", "5889",
              vanilla.slices);
  std::printf("%-44s %16s %16.0f\n", "Table I SOFIA slices", "7551",
              sofia_hw.slices);
  std::printf("%-44s %16s %15.1f%%\n", "Table I area overhead", "+28.2%",
              hw::overhead_pct(vanilla.slices, sofia_hw.slices));
  std::printf("%-44s %16s %16.1f\n", "Table I SOFIA clock (MHz)", "50.1",
              sofia_hw.clock_mhz);

  // --- security analytics ------------------------------------------------------
  std::printf("%-44s %16s %16.0f\n", "SI forgery years (64b, 8cyc, 50MHz)",
              "46795", security::forgery_years(64, 8, 50e6));
  std::printf("%-44s %16s %16.0f\n", "CFI attack years (16 cyc/trial)", "93590",
              security::forgery_years(64, 16, 50e6));

  // --- ADPCM (through the sweep driver) ----------------------------------------
  driver::SweepSpec adpcm = driver::matrix("adpcm");
  adpcm.size_override = samples;
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
  const bool cycle_accurate =
      sim::make_backend(backend)->capabilities().cycle_accurate;
  if (cycle_accurate) {
    std::printf("%-44s %16s %15.1f%%\n", "ADPCM cycle overhead", "+13.7%",
                cyc);
    std::printf("%-44s %16s %15.1f%%\n", "ADPCM exec-time overhead", "+110%",
                time_ovh);
  } else {
    std::printf("%-44s %16s %16s\n", "ADPCM cycle overhead", "+13.7%",
                "n/a");
    std::printf("%-44s %16s %16s\n", "ADPCM exec-time overhead", "+110%",
                "n/a");
    std::printf("%-44s\n",
                "  (backend is not cycle-accurate; integrity checked only)");
  }

  // --- attack round-trip ---------------------------------------------------------
  // Each demo overwrites its victim's code pointer (the first data word)
  // with the gadget's address, on both cores, under Alg. 1's per-word CTR.
  auto demo_profile = pipeline::DeviceProfile::with_keys(keys);
  demo_profile.granularity = crypto::Granularity::kPerWord;
  const auto smash = [](std::uint32_t gadget) -> campaign::MutationRecord {
    return {{campaign::MutationKind::kRetargetIndirect, 0, gadget}};
  };
  const campaign::Target rop(campaign::kRopVictim, demo_profile);
  const bool rop_ok =
      rop.execute_vanilla(smash(rop.aim_vanilla("gadget")))
              .output.find("6666") != std::string::npos &&
      rop.execute(smash(rop.aim("gadget"))).status ==
          sim::RunResult::Status::kReset;
  std::printf("%-44s %16s %16s\n", "ROP: vanilla breached / SOFIA reset",
              "detect", rop_ok ? "ok" : "FAIL");
  const campaign::Target jop(campaign::kJopVictim, demo_profile);
  const bool jop_ok =
      jop.execute_vanilla(smash(jop.aim_vanilla("gadget")))
              .output.find("7777") != std::string::npos &&
      jop.execute(smash(jop.aim("gadget"))).output.empty();
  std::printf("%-44s %16s %16s\n", "JOP: vanilla breached / SOFIA trapped",
              "detect", jop_ok ? "ok" : "FAIL");

  // Seeded fetch faults over everything the device reads (instruction and
  // MAC words): each one must reset the device.
  const campaign::Target fault_target(
      "main:\n li r2, 40\nloop:\n addi r1, r1, 3\n addi r2, r2, -1\n bnez r2, "
      "loop\n li r10, 0xFFFF0008\n sw r1, 0(r10)\n halt\n",
      pipeline::DeviceProfile::with_keys(keys));
  const auto& fault_clean = fault_target.clean_run();
  const std::uint64_t fault_span =
      fault_clean.stats.fetch_words + fault_clean.stats.mac_words;
  const std::uint64_t fault_trials = quick ? 40 : 150;
  std::uint64_t faults_detected = 0;
  Rng rng(1);
  for (std::uint64_t t = 0; t < fault_trials; ++t) {
    const std::uint64_t index = rng.next_below(fault_span);
    const std::uint64_t bit = rng.next_below(32);
    const auto run = fault_target.execute(
        {{campaign::MutationKind::kFetchFault, index, bit}});
    if (campaign::classify(run, fault_clean.output) ==
        campaign::TrialClass::kDetected)
      ++faults_detected;
  }
  std::printf("%-44s %16s %10llu/%llu\n", "fetch faults detected (SOFIA)",
              "all", static_cast<unsigned long long>(faults_detected),
              static_cast<unsigned long long>(fault_trials));
  driver::print_rule(80);
  std::printf(
      "\nFull ADPCM table: sofia_sweep --matrix adpcm; every paper table:\n"
      "sofia_sweep --matrix NAME (README \"Experiment sweeps\").\n");
  return (rop_ok && jop_ok && faults_detected == fault_trials) ? 0 : 1;
}
