// Analytic hardware area/clock model (DESIGN.md E1/E8): the offline
// substitute for the paper's Virtex-6 synthesis runs. The model is
// component-based — a LEON3 baseline plus the SOFIA additions (the
// partially-unrolled cipher datapath, precomputed round-key registers, MAC
// datapath and fetch control) — with constants calibrated so the paper's
// two Table-I rows are reproduced exactly:
//
//   vanilla:  5,889 slices @ 92.3 MHz
//   SOFIA(2-cycle cipher): 5,889 + 13*100 + 362 = 7,551 slices,
//                          period = 13 * 1.4203 + 1.5 = 19.96 ns -> 50.1 MHz
//
// Everything else (other unroll factors) is a prediction of the calibrated
// model, used for the design-space exploration the paper lists as future
// work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sofia::hw {

struct HwEstimate {
  double slices = 0;
  double clock_mhz = 0;
  double period_ns = 0;
};

struct HwModel {
  // Calibration constants (see header comment).
  double vanilla_slices = 5889.0;
  double vanilla_period_ns = 1e3 / 92.3;  ///< 10.834 ns
  double round_slices = 100.0;         ///< one combinational RECTANGLE round
  double fixed_slices = 362.0;         ///< key regs + MAC datapath + control
  double round_delay_ns = (1e3 / 50.1 - 1.5) / 13.0;  ///< 1.4202 ns
  double cipher_overhead_ns = 1.5;     ///< mux/XOR/compare around the rounds
  int total_rounds = 26;               ///< RECTANGLE-80 ops per block op

  HwEstimate vanilla() const;

  /// SOFIA core with the cipher unrolled to complete in `unroll_cycles`
  /// cycles (the paper's design point is 2).
  HwEstimate sofia(int unroll_cycles) const;

  /// Combinational round instances needed for a given cycle count.
  int round_instances(int unroll_cycles) const;
};

double execution_time_ms(std::uint64_t cycles, double clock_mhz);

/// Percent overhead of b relative to a.
double overhead_pct(double a, double b);

}  // namespace sofia::hw
