// Backend ablation — functional-vs-cycle wall-clock across the workload
// suite. For each workload the same hardened image is executed once per
// backend (run-only: the toolchain stages are built beforehand and shared),
// the architectural results are cross-checked, and the wall-clock ratio is
// reported. This is the number that justifies `sofia_sweep --backend
// functional` as a prefilter: how much cheaper is an integrity-only pass?
//
//   bench_backend_speedup [--size-divisor N] [--repeat R] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "driver/tables.hpp"
#include "pipeline/pipeline.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/io.hpp"
#include "support/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double timed_ms(const std::function<void()>& fn, std::uint32_t repeat) {
  double best = 0;
  for (std::uint32_t r = 0; r < repeat; ++r) {
    const auto t0 = Clock::now();
    fn();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

struct Row {
  std::string workload;
  std::uint32_t size = 0;
  double cycle_ms = 0;
  double functional_ms = 0;
  std::uint64_t cycle_cycles = 0;
  std::uint64_t insts = 0;
  bool agree = false;

  double speedup() const {
    return functional_ms > 0 ? cycle_ms / functional_ms : 0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sofia;
  std::uint32_t size_divisor = 4;
  std::uint32_t repeat = 3;
  std::string json_path;

  cli::Parser parser("bench_backend_speedup",
                     "functional-vs-cycle wall-clock across the suite");
  parser
      .option("--size-divisor", size_divisor, "N",
              "divide workload sizes by N (default 4)")
      .option("--repeat", repeat, "R", "repetitions, best-of (default 3)")
      .option("--json", json_path, "PATH", "write the measurement document");
  parser.parse_or_exit(argc, argv);
  if (size_divisor < 1 || repeat < 1)
    return parser.fail("--size-divisor and --repeat must be >= 1");

  std::printf("Backend speedup — run-only wall clock, best of %u\n", repeat);
  driver::print_rule(88);
  std::printf("%-14s %7s | %10s %10s %8s | %12s %10s | %s\n", "workload",
              "size", "cycle ms", "func ms", "speedup", "cycles", "insts",
              "agree");
  driver::print_rule(88);

  std::vector<Row> rows;
  double sum_speedup = 0;
  bool all_agree = true;
  for (const auto& spec : workloads::all_workloads()) {
    Row row;
    row.workload = spec.name;
    row.size = std::max(4u, spec.default_size / size_divisor);

    auto builder = pipeline::Pipeline::from_workload(spec, 1, row.size);
    const auto& img = builder.image();  // toolchain stages, outside the timer
    auto functional_profile = pipeline::DeviceProfile::paper_default();
    functional_profile.backend = "functional";
    auto functional = pipeline::Pipeline::from_image(img, functional_profile);

    sim::RunResult cycle_run;
    sim::RunResult functional_run;
    row.cycle_ms = timed_ms([&] { cycle_run = builder.run_image(img); }, repeat);
    row.functional_ms =
        timed_ms([&] { functional_run = functional.run_image(img); }, repeat);
    row.cycle_cycles = cycle_run.stats.cycles;
    row.insts = functional_run.stats.insts;
    row.agree = cycle_run.status == functional_run.status &&
                cycle_run.exit_code == functional_run.exit_code &&
                cycle_run.output == functional_run.output &&
                cycle_run.stats.insts == functional_run.stats.insts;
    all_agree = all_agree && row.agree;
    sum_speedup += row.speedup();

    std::printf("%-14s %7u | %10.3f %10.3f %7.1fx | %12llu %10llu | %s\n",
                row.workload.c_str(), row.size, row.cycle_ms, row.functional_ms,
                row.speedup(),
                static_cast<unsigned long long>(row.cycle_cycles),
                static_cast<unsigned long long>(row.insts),
                row.agree ? "ok" : "MISMATCH");
    rows.push_back(std::move(row));
  }
  driver::print_rule(88);
  const double mean =
      rows.empty() ? 0 : sum_speedup / static_cast<double>(rows.size());
  std::printf("%-14s %7s | %10s %10s %7.1fx |\n", "mean", "", "", "", mean);
  std::printf("\nfunctional skips the I-cache/cipher-engine timing model and "
              "verifies each\n(entry, prevPC) block once; use it for sweep "
              "prefiltering, never for overhead numbers.\n");

  if (!json_path.empty()) {
    json::Writer w(2);
    w.begin_object();
    w.member("schema", "sofia-backend-speedup-v1");
    w.member("repeat", repeat);
    w.member("size_divisor", size_divisor);
    w.key("jobs").begin_array();
    for (const auto& row : rows) {
      w.begin_object();
      w.member("workload", row.workload);
      w.member("size", row.size);
      w.member("cycle_ms", row.cycle_ms);
      w.member("functional_ms", row.functional_ms);
      w.member("speedup", row.speedup());
      w.member("cycle_cycles", row.cycle_cycles);
      w.member("insts", row.insts);
      w.member("agree", row.agree);
      w.end_object();
    }
    w.end_array();
    w.member("mean_speedup", mean);
    w.end_object();
    try {
      sofia::io::write_file(json_path, w.str() + "\n");
    } catch (const sofia::Error& e) {
      std::fprintf(stderr, "bench_backend_speedup: %s\n", e.what());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_agree ? 0 : 1;
}
