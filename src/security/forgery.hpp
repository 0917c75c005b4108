// Forgery-cost analysis (paper §IV-A): the analytic expected-time formulas
// behind the "46,795 years" (SI) and "93,590 years" (CFI) numbers, plus
// Monte-Carlo experiments at reduced tag lengths that empirically verify
// the 2^(n-1) expected-trials law the analysis rests on.
#pragma once

#include <cstdint>

#include "crypto/key_set.hpp"
#include "support/rng.hpp"

namespace sofia::security {

inline constexpr double kSecondsPerYear = 365.0 * 24 * 3600;

/// Expected number of online verification trials to forge an n-bit MAC by
/// guessing (the adversary sweeps tag values; the target is uniform):
/// 2^(n-1) on average (Handschuh & Preneel, the paper's [32]).
double expected_forgery_trials(unsigned tag_bits);

/// Expected wall-clock years for an online forgery: trials x cycles/trial
/// at the given clock (paper: 8 cycles per SI trial, 16 per CFI trial,
/// 50 MHz).
double forgery_years(unsigned tag_bits, double cycles_per_trial,
                     double clock_hz);

struct ForgeryExperiment {
  unsigned tag_bits = 0;
  std::uint64_t experiments = 0;
  double mean_trials = 0;      ///< empirical average guesses until success
  double expected_trials = 0;  ///< 2^(n-1)
};

/// Monte-Carlo forgery against the real CBC-MAC truncated to `tag_bits`:
/// each experiment draws a random 6-word block, computes its tag, and
/// counts sequential guesses until the attacker's candidate matches.
ForgeryExperiment run_forgery_experiment(const crypto::KeySet& keys,
                                         unsigned tag_bits,
                                         std::uint64_t experiments, Rng& rng);

struct DetectionExperiment {
  unsigned tag_bits = 0;
  std::uint64_t trials = 0;
  std::uint64_t undetected = 0;  ///< tampers that passed verification
  double detection_rate = 0;     ///< 1 - undetected/trials
};

/// Monte-Carlo detection probability: random single-word tampers against
/// random blocks, verified with a truncated tag. Undetected fraction must
/// approach 2^-n.
DetectionExperiment run_detection_experiment(const crypto::KeySet& keys,
                                             unsigned tag_bits,
                                             std::uint64_t trials, Rng& rng);

}  // namespace sofia::security
