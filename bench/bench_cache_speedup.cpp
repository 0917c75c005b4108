// Cache ablation — cold-vs-warm wall clock for the content-addressed
// result cache (src/cache/). Every built-in matrix is run twice in smoke
// form against a fresh cache directory: the cold pass executes and stores
// every job, the warm pass must serve 100% of them from disk. The bench
// cross-checks the contract that makes the cache safe to enable by
// default: the warm document is byte-identical to the cold one, and a
// warm run executes zero jobs.
//
//   bench_cache_speedup [--matrix NAME] [--json PATH]
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cache/result_store.hpp"
#include "driver/sweep.hpp"
#include "driver/tables.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/io.hpp"
#include "support/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Row {
  std::string matrix;
  std::uint64_t jobs = 0;
  double cold_ms = 0;
  double warm_ms = 0;
  std::uint64_t warm_hits = 0;
  bool identical = false;

  double speedup() const { return warm_ms > 0 ? cold_ms / warm_ms : 0; }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sofia;
  std::string matrix_name;
  std::string json_path;

  cli::Parser parser("bench_cache_speedup",
                     "cold-vs-warm result-cache wall clock per matrix");
  parser
      .option("--matrix", matrix_name, "NAME",
              "bench only this matrix (default: every built-in matrix)")
      .option("--json", json_path, "PATH", "write the measurement document");
  parser.parse_or_exit(argc, argv);

  std::vector<std::string> names;
  if (!matrix_name.empty())
    names.push_back(matrix_name);
  else
    names = driver::matrix_names();

  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() /
                        ("sofia-bench-cache-" + std::to_string(getpid()));

  std::printf("Result-cache speedup — smoke matrices, cold vs warm\n");
  driver::print_rule(78);
  std::printf("%-24s %6s | %10s %10s %8s | %6s %s\n", "matrix", "jobs",
              "cold ms", "warm ms", "speedup", "hits", "identical");
  driver::print_rule(78);

  std::vector<Row> rows;
  bool all_ok = true;
  try {
    for (const auto& name : names) {
      driver::SweepSpec spec = driver::smoke(driver::matrix(name));
      const fs::path dir = root / name;

      Row row;
      row.matrix = name;

      cache::ResultStore cold_store(dir);
      const auto t0 = Clock::now();
      const auto cold = driver::run_sweep(spec, 1, {}, {}, &cold_store);
      row.cold_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

      cache::ResultStore warm_store(dir);
      const auto t1 = Clock::now();
      const auto warm = driver::run_sweep(spec, 1, {}, {}, &warm_store);
      row.warm_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t1).count();

      row.jobs = warm.jobs.size();
      row.warm_hits = warm_store.stats().hits;
      row.identical = driver::to_json(cold) == driver::to_json(warm) &&
                      warm.cached_jobs() == warm.jobs.size();
      all_ok = all_ok && row.identical;

      std::printf("%-24s %6llu | %10.1f %10.1f %7.1fx | %6llu %s\n",
                  row.matrix.c_str(),
                  static_cast<unsigned long long>(row.jobs), row.cold_ms,
                  row.warm_ms, row.speedup(),
                  static_cast<unsigned long long>(row.warm_hits),
                  row.identical ? "ok" : "MISMATCH");
      rows.push_back(std::move(row));
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "bench_cache_speedup: %s\n", e.what());
    std::error_code ec;
    fs::remove_all(root, ec);
    return 1;
  }
  std::error_code ec;
  fs::remove_all(root, ec);
  driver::print_rule(78);
  std::printf("\na warm coordinator re-renders every document from disk — "
              "the speedup is what an\ninterrupted fleet run wins back on "
              "resume, not a change to any measurement.\n");

  if (!json_path.empty()) {
    json::Writer w(2);
    w.begin_object();
    w.member("schema", "sofia-cache-speedup-v1");
    w.key("matrices").begin_array();
    for (const auto& row : rows) {
      w.begin_object();
      w.member("matrix", row.matrix);
      w.member("jobs", row.jobs);
      w.member("cold_ms", row.cold_ms);
      w.member("warm_ms", row.warm_ms);
      w.member("speedup", row.speedup());
      w.member("warm_hits", row.warm_hits);
      w.member("identical", row.identical);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    try {
      io::write_file(json_path, w.str() + "\n");
    } catch (const Error& e) {
      std::fprintf(stderr, "bench_cache_speedup: %s\n", e.what());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_ok ? 0 : 1;
}
