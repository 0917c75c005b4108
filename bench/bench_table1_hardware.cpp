// E1 — Table I: hardware comparison of SOFIA and LEON3.
//
// Paper (Virtex-6 synthesis):          This repo (calibrated model):
//   Vanilla  5,889 slices  92.3 MHz      exact by calibration
//   SOFIA    7,551 slices  50.1 MHz      exact by calibration
//   (+28.2% area, clock period 1.846x — "84.6% slower")
#include <cstdio>

#include "driver/tables.hpp"
#include "hw/hw_model.hpp"

int main() {
  using namespace sofia;
  const hw::HwModel model;
  const auto vanilla = model.vanilla();
  const auto paper_point = model.sofia(2);

  std::printf("Table I: hardware comparison of SOFIA and LEON3\n");
  driver::print_rule();
  std::printf("%-28s %10s %12s %12s\n", "Design", "Slices", "Clock (MHz)",
              "Period (ns)");
  driver::print_rule();
  std::printf("%-28s %10.0f %12.1f %12.2f\n", "Vanilla (LEON3)", vanilla.slices,
              vanilla.clock_mhz, vanilla.period_ns);
  std::printf("%-28s %10.0f %12.1f %12.2f\n", "SOFIA (2-cycle cipher)",
              paper_point.slices, paper_point.clock_mhz, paper_point.period_ns);
  driver::print_rule();
  std::printf("area overhead:          %+6.1f %%   (paper: +28.2 %%)\n",
              hw::overhead_pct(vanilla.slices, paper_point.slices));
  std::printf("clock period increase:  %+6.1f %%   (paper: clock 84.6 %% slower)\n",
              hw::overhead_pct(vanilla.period_ns, paper_point.period_ns));
  std::printf("\nModel composition for the SOFIA row:\n");
  std::printf("  baseline LEON3                %7.0f slices\n", model.vanilla_slices);
  std::printf("  13 combinational rounds x %3.0f  %6.0f slices\n",
              model.round_slices, 13 * model.round_slices);
  std::printf("  key regs + MAC + control      %7.0f slices\n", model.fixed_slices);
  std::printf("  critical path: 13 x %.3f ns + %.1f ns = %.2f ns\n",
              model.round_delay_ns, model.cipher_overhead_ns,
              paper_point.period_ns);
  return 0;
}
