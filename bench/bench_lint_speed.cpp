// Static-verifier throughput — wall-clock of a full verify::lint pass
// (seal re-derivation, edge checks, and the abstract-interpretation
// dataflow engine) per workload x scheme. The lint pass is the gate every
// sweep/campaign cell and CI job pays before touching a simulator, so its
// cost budget matters: this bench documents it and catches regressions
// when the dataflow lattice grows.
//
//   bench_lint_speed [--size-divisor N] [--repeat R] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "driver/tables.hpp"
#include "pipeline/pipeline.hpp"
#include "scheme/scheme.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "verify/verify.hpp"

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
  std::string scheme;
  std::uint32_t size = 0;
  std::uint32_t blocks = 0;
  std::uint32_t edges = 0;
  std::uint32_t stores = 0;
  std::uint32_t indirects = 0;
  double lint_ms = 0;
  bool clean = false;

  double blocks_per_ms() const { return lint_ms > 0 ? blocks / lint_ms : 0; }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sofia;
  std::uint32_t size_divisor = 4;
  std::uint32_t repeat = 3;
  std::string json_path;

  cli::Parser parser("bench_lint_speed",
                     "verify::lint wall-clock per workload x scheme");
  parser
      .option("--size-divisor", size_divisor, "N",
              "divide workload sizes by N (default 4)")
      .option("--repeat", repeat, "R", "repetitions, best-of (default 3)")
      .option("--json", json_path, "PATH", "write the measurement document");
  parser.parse_or_exit(argc, argv);
  if (size_divisor < 1 || repeat < 1)
    return parser.fail("--size-divisor and --repeat must be >= 1");

  std::printf("Lint speed — full static pass wall clock, best of %u\n", repeat);
  driver::print_rule(96);
  std::printf("%-14s %-13s %6s | %7s %7s %7s %5s | %9s %10s | %s\n",
              "workload", "scheme", "size", "blocks", "edges", "stores",
              "jalr", "lint ms", "blk/ms", "clean");
  driver::print_rule(96);

  std::vector<Row> rows;
  bool all_clean = true;
  for (const auto& spec : workloads::all_workloads()) {
    for (const auto& scheme_name : scheme::scheme_names()) {
      Row row;
      row.workload = spec.name;
      row.scheme = scheme_name;
      row.size = std::max(4u, spec.default_size / size_divisor);

      auto profile = pipeline::DeviceProfile::paper_default();
      profile.scheme = scheme_name;
      auto session =
          pipeline::Pipeline::from_workload(spec, 1, row.size, profile);
      const auto& img = session.image();  // toolchain stages, untimed
      session.lint();                     // warm the model cache, untimed

      verify::Report report;
      row.lint_ms = timed_ms([&] { report = session.lint_image(img); }, repeat);
      row.blocks = report.blocks_checked;
      row.edges = report.edges_checked;
      row.stores = report.stores_checked;
      row.indirects = static_cast<std::uint32_t>(report.indirects.size());
      row.clean = report.clean();
      all_clean = all_clean && row.clean;

      std::printf("%-14s %-13s %6u | %7u %7u %7u %5u | %9.3f %10.1f | %s\n",
                  row.workload.c_str(), row.scheme.c_str(), row.size,
                  row.blocks, row.edges, row.stores, row.indirects,
                  row.lint_ms, row.blocks_per_ms(),
                  row.clean ? "ok" : "DIRTY");
      rows.push_back(std::move(row));
    }
  }
  driver::print_rule(96);
  std::printf("\nthe dataflow engine (store proofs + jalr target sets) runs "
              "inside every lint\npass; scheme choice only changes seal "
              "re-derivation and gating checks.\n");

  if (!json_path.empty()) {
    json::Writer w(2);
    w.begin_object();
    w.member("schema", "sofia-lint-speed-v1");
    w.member("repeat", repeat);
    w.member("size_divisor", size_divisor);
    w.key("jobs").begin_array();
    for (const auto& row : rows) {
      w.begin_object();
      w.member("workload", row.workload);
      w.member("scheme", row.scheme);
      w.member("size", row.size);
      w.member("blocks_checked", row.blocks);
      w.member("edges_checked", row.edges);
      w.member("stores_checked", row.stores);
      w.member("indirects", row.indirects);
      w.member("lint_ms", row.lint_ms);
      w.member("clean", row.clean);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    try {
      sofia::io::write_file(json_path, w.str() + "\n");
    } catch (const sofia::Error& e) {
      std::fprintf(stderr, "bench_lint_speed: %s\n", e.what());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_clean ? 0 : 1;
}
