// The run-mode flags sofia_sweep and sofia_attack share: how many threads,
// where the document goes, the result cache, and the three ways to split a
// run — one shard of it (--shard K/N), the fold of shard files (--merge)
// and a fleet of shard worker processes (--workers N, --launch CMD).
// Declared once here, so the two engines cannot drift apart; each engine
// supplies its own merge, verdict and failure exit code.
//
// A --workers coordinator runs `<launch> <its own flags> --shard K/N
// --quiet --json -` per worker (driver::run_workers), so every engine flag
// reaches the workers as given.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "driver/jobs.hpp"
#include "support/cli.hpp"

namespace sofia::tools {

struct EngineFlags {
  /// The flags a --workers coordinator keeps to itself.
  static constexpr std::string_view kCoordinatorFlags[] = {
      "--workers", "--launch", "--json", "--quiet", "--cache-stats"};

  std::uint32_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::string json_path;
  std::string cache_dir;
  std::string cache_stats_path;
  std::string shard_text;
  std::string merge_out;
  std::vector<std::string> merge_inputs;
  std::uint32_t workers = 0;  ///< 0 = run in this process
  std::string launch;         ///< empty = this binary
  bool quiet = false;

  /// `progress` names what --quiet suppresses ("per-job progress table").
  void declare(cli::Parser& parser, const std::string& progress) {
    parser
        .option("--threads", threads, "N",
                "worker threads (default: hardware concurrency; with "
                "--workers, hardware concurrency / N per worker)")
        .option("--json", json_path, "PATH",
                "write the document to PATH ('-' = stdout)")
        .option("--cache", cache_dir, "DIR",
                "content-addressed result cache: reuse prior results, store "
                "new ones, resume an interrupted run (default: $SOFIA_CACHE "
                "when set)")
        .option("--cache-stats", cache_stats_path, "PATH",
                "write this run's cache hit/miss counters as a JSON document")
        .option("--shard", shard_text, "K/N",
                "run only job indices congruent to K mod N")
        .option("--merge", merge_out, "OUT.json",
                "merge shard documents (trailing args) into OUT.json and exit")
        .option("--workers", workers, "N",
                "run N shard worker processes and merge their documents "
                "(default: 0 = run in this process)")
        .option("--launch", launch, "CMD",
                "worker command for --workers; the shard flags are appended "
                "(default: this binary)")
        .flag("--quiet", quiet, "suppress the " + progress)
        .positional_list("in.json", merge_inputs);
  }

  /// The usage error in the parsed flags, or "".
  std::string usage_error() const {
    if (threads < 1) return "--threads must be >= 1";
    if (merge_out.empty() && !merge_inputs.empty())
      return "unexpected argument '" + merge_inputs.front() +
             "' (input documents are only valid with --merge)";
    if (!merge_out.empty() && merge_inputs.empty())
      return "--merge needs at least one input document";
    if (workers > 0 && (!shard_text.empty() || !merge_out.empty() ||
                        !cache_stats_path.empty()))
      return "--workers runs its own shards and merge; it takes no --shard, "
             "--merge or --cache-stats";
    if (workers == 0 && !launch.empty()) return "--launch needs --workers";
    return "";
  }

  /// Where the progress lines go: stderr when the document is on stdout,
  /// so the output stream stays byte-clean for a collector.
  std::FILE* log() const {
    return json_path == "-" || merge_out == "-" ? stderr : stdout;
  }

  driver::ShardSpec shard() const {
    return shard_text.empty() ? driver::ShardSpec{}
                              : driver::ShardSpec::parse(shard_text);
  }

  /// The --workers mode: fan this very command line out over the workers
  /// and return the merged document. A worker exiting at or above
  /// `failure_exit` has failed.
  json::Value merge_workers(const cli::Parser& parser, int argc,
                            const char* const* argv, driver::MergeFn merge,
                            int failure_exit, std::FILE* log) const {
    const driver::Fleet fleet{
        launch.empty() ? cli::shell_quote(argv[0]) : launch, workers,
        parser.forward(argc, argv, kCoordinatorFlags), failure_exit};
    return driver::merge_workers(fleet, json_path, merge, log, quiet);
  }
};

}  // namespace sofia::tools
