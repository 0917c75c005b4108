// sofia-sweep: run an experiment matrix (workloads × configurations) on a
// thread pool and emit the results as a machine-readable JSON document.
// The built-in matrices cover the paper's headline tables plus the repo's
// ablations; adding a scenario is one entry in src/driver/sweep.cpp. An
// unsharded run, a --merge and a --workers run print the matrix's table
// (driver/tables.hpp).
//
// Multi-machine use (tools/engine_flags.hpp): `--shard K/N` runs only job
// indices ≡ K (mod N); `--merge out.json in1.json in2.json...` folds the
// shard documents back into the canonical document, byte-identical to an
// unsharded run; `--workers N` runs N shard workers and merges their
// stdout documents. A worker is any shell command (default: this binary):
//   sofia_sweep --smoke --workers 4
//   sofia_sweep --workers 2 --launch 'docker run -i --rm sofia sofia_sweep'
// Exit code, for all of them: 1 when a job failed or a worker failed, 2 on
// usage errors.
#include <cstdio>
#include <string>

#include "cache/result_store.hpp"
#include "driver/sweep.hpp"
#include "driver/tables.hpp"
#include "engine_flags.hpp"
#include "scheme/scheme.hpp"
#include "sim/backend.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/io.hpp"

int main(int argc, char** argv) {
  using namespace sofia;
  std::string matrix_name = "suite-overhead";
  std::string backend(sim::kDefaultBackend);
  std::string scheme;  // empty = keep each cell's own scheme axis
  bool smoke = false;
  bool lint = false;
  bool list = false;
  tools::EngineFlags flags;

  cli::Parser parser("sofia_sweep",
                     "parallel experiment matrix -> JSON results");
  parser
      .option("--matrix", matrix_name, "NAME",
              "matrix to run (default: suite-overhead; see --list)")
      .choice("--backend", backend, sofia::sim::backend_names(),
              "execution backend for every job (functional = fast "
              "architectural prefilter, no timing)")
      .choice("--scheme", scheme, scheme::scheme_names(),
              "force a protection scheme onto every job (default: keep "
              "each matrix cell's own, e.g. the scheme matrix's axis)")
      .flag("--smoke", smoke, "shrink the matrix to a seconds-long smoke run")
      .flag("--lint", lint,
            "statically lint each hardened image first; findings fail the "
            "job early and land in its JSON record")
      .flag("--list", list, "list the built-in matrices and exit");
  flags.declare(parser, "per-job progress table");
  parser.parse_or_exit(argc, argv);

  if (list) {
    for (const auto& name : driver::matrix_names())
      std::printf("%s\n", name.c_str());
    return 0;
  }
  if (const auto usage = flags.usage_error(); !usage.empty())
    return parser.fail(usage);
  std::FILE* log = flags.log();

  try {
    if (!flags.merge_out.empty())
      return driver::verdict(
          driver::merge_files(flags.merge_out, flags.merge_inputs,
                              driver::merge_json, log),
          log);

    const driver::ShardSpec shard = flags.shard();
    driver::SweepSpec spec = driver::matrix(matrix_name);
    if (smoke) spec = driver::smoke(std::move(spec));
    spec = driver::with_backend(std::move(spec), backend);
    // choice() only validates when the flag is passed; the empty default
    // means "leave the matrix's per-cell scheme axis alone".
    if (!scheme.empty()) spec = driver::with_scheme(std::move(spec), scheme);
    spec.lint = lint;
    const auto jobs = driver::expand_jobs(spec);
    if (flags.workers > 0) {
      std::fprintf(log, "sweep %-20s %zu jobs over %u worker(s)\n",
                   spec.name.c_str(), jobs.size(), flags.workers);
      return driver::verdict(
          flags.merge_workers(parser, argc, argv, driver::merge_json, 1, log),
          log);
    }
    if (shard.is_whole()) {
      std::fprintf(log, "sweep %-20s %zu jobs on %u thread(s)\n",
                   spec.name.c_str(), jobs.size(), flags.threads);
    } else {
      std::fprintf(log, "sweep %-20s shard %u/%u of %zu jobs on %u thread(s)\n",
                   spec.name.c_str(), shard.index, shard.count, jobs.size(),
                   flags.threads);
    }

    driver::ProgressFn progress;
    if (!flags.quiet) {
      progress = [log](const driver::JobResult& r) {
        if (!r.ok) {
          std::fprintf(log, "  [%3zu] %-14s %-34s FAILED: %s\n", r.job.index,
                       r.job.workload.c_str(), r.job.config.name.c_str(),
                       r.error.c_str());
          return;
        }
        std::fprintf(log,
                     "  [%3zu] %-14s %-34s cycles %10llu -> %10llu (%+6.1f%%)\n",
                     r.job.index, r.job.workload.c_str(),
                     r.job.config.name.c_str(),
                     static_cast<unsigned long long>(r.m.vanilla_cycles),
                     static_cast<unsigned long long>(r.m.sofia_cycles),
                     r.m.cycle_overhead_pct());
      };
    }
    const cache::ToolCache cache("sofia_sweep", flags.cache_dir,
                                 flags.cache_stats_path, log);
    if (const auto usage = cache.usage_error(); !usage.empty())
      return parser.fail(usage);

    const auto result =
        driver::run_sweep(spec, flags.threads, progress, shard, cache.get());
    std::fprintf(log,
                 "done in %.2f s (%u thread(s)); %s; %zu vanilla run(s) for "
                 "%zu job(s)\n",
                 result.wall_seconds, result.threads_used,
                 result.all_ok() ? "all jobs ok" : "FAILURES",
                 result.vanilla_runs, result.jobs.size());
    cache.report();

    const std::string document = driver::to_json(result);
    if (!flags.json_path.empty()) {
      io::emit_document(flags.json_path, document);
      if (flags.json_path != "-")
        std::fprintf(log, "wrote %s\n", flags.json_path.c_str());
    }
    // A shard holds a slice of the matrix; --merge prints its table.
    if (shard.is_whole()) return driver::verdict(json::parse(document), log);
    return result.all_ok() ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "sofia_sweep: %s\n", e.what());
    return 1;
  }
}
