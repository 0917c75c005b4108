// E5/E6/E13 — §IV-A security evaluation.
//
// Analytic (exact reproduction): a 64-bit MAC forged online at 8 cycles per
// trial on a 50 MHz core takes 46,795 years on average; a control-flow
// attack needs diversion + verification (16 cycles) -> 93,590 years.
//
// Empirical: the 2^(n-1) expected-trials law and the 2^-n undetected-tamper
// rate, Monte-Carlo-measured against the real CBC-MAC at reduced tag
// lengths.
#include <cstdio>

#include "driver/tables.hpp"
#include "security/forgery.hpp"

int main() {
  using namespace sofia;
  const auto keys = crypto::KeySet::example(crypto::CipherKind::kRectangle80);

  std::printf("Analytic online-forgery cost (64-bit MAC, 50 MHz SOFIA core)\n");
  driver::print_rule();
  std::printf("%-34s %14s %14s\n", "attack", "years (model)", "years (paper)");
  driver::print_rule();
  std::printf("%-34s %14.0f %14s\n", "SI forgery (8 cycles/trial)",
              security::forgery_years(64, 8, 50e6), "46,795");
  std::printf("%-34s %14.0f %14s\n", "CFI attack (16 cycles/trial)",
              security::forgery_years(64, 16, 50e6), "93,590");
  driver::print_rule();

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
                static_cast<double>(exp.undetected) / static_cast<double>(exp.trials),
                bits >= 63 ? 0.0 : 1.0 / static_cast<double>(1ull << bits));
  }
  driver::print_rule();
  return 0;
}
