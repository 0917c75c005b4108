#include "security/forgery.hpp"

#include <cmath>

#include "crypto/cbc_mac.hpp"

namespace sofia::security {

double expected_forgery_trials(unsigned tag_bits) {
  return std::ldexp(1.0, static_cast<int>(tag_bits) - 1);
}

double forgery_years(unsigned tag_bits, double cycles_per_trial,
                     double clock_hz) {
  return expected_forgery_trials(tag_bits) * cycles_per_trial / clock_hz /
         kSecondsPerYear;
}

ForgeryExperiment run_forgery_experiment(const crypto::KeySet& keys,
                                         unsigned tag_bits,
                                         std::uint64_t experiments, Rng& rng) {
  const auto cipher = keys.exec_mac_cipher();
  ForgeryExperiment result;
  result.tag_bits = tag_bits;
  result.experiments = experiments;
  result.expected_trials = expected_forgery_trials(tag_bits);
  long double total = 0;
  for (std::uint64_t e = 0; e < experiments; ++e) {
    std::uint32_t words[6];
    for (auto& w : words) w = rng.next_u32();
    const std::uint64_t tag =
        crypto::truncate_tag(crypto::cbc_mac64(*cipher, words), tag_bits);
    // Sequential guessing: candidate 0, 1, 2, ... — the guess count until
    // the (uniform) tag matches is tag + 1.
    total += static_cast<long double>(tag) + 1;
  }
  result.mean_trials = static_cast<double>(total / experiments);
  return result;
}

DetectionExperiment run_detection_experiment(const crypto::KeySet& keys,
                                             unsigned tag_bits,
                                             std::uint64_t trials, Rng& rng) {
  const auto cipher = keys.exec_mac_cipher();
  DetectionExperiment result;
  result.tag_bits = tag_bits;
  result.trials = trials;
  for (std::uint64_t t = 0; t < trials; ++t) {
    std::uint32_t words[6];
    for (auto& w : words) w = rng.next_u32();
    const std::uint64_t tag =
        crypto::truncate_tag(crypto::cbc_mac64(*cipher, words), tag_bits);
    // Tamper one word, re-verify against the stored (old) tag.
    const auto idx = rng.next_below(6);
    words[idx] ^= static_cast<std::uint32_t>(1 + rng.next_below(0xFFFFFFFFull));
    const std::uint64_t tampered =
        crypto::truncate_tag(crypto::cbc_mac64(*cipher, words), tag_bits);
    if (tampered == tag) ++result.undetected;
  }
  result.detection_rate =
      1.0 - static_cast<double>(result.undetected) / static_cast<double>(trials);
  return result;
}

}  // namespace sofia::security
