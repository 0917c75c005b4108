// sofia-fleet: multi-worker sweep coordinator. Expands the same job matrix
// as sofia_sweep, launches N workers, hands worker K the `--shard K/N`
// slice, collects each shard's JSON document from the worker's stdout and
// merges them through driver::merge_json — producing a document
// byte-identical to a single-machine `sofia_sweep` run (and the same table).
//
// Workers are shell commands (default: the sofia_sweep binary next to this
// one), so the fan-out transport is pluggable without code changes:
//   sofia_fleet --workers 4                          # local subprocesses
//   sofia_fleet --workers 2 --launch 'ssh host /opt/sofia/sofia_sweep'
//   sofia_fleet --workers 2 --launch 'docker run -i --rm sofia sofia_sweep'
// Every worker writes its shard to stdout (`--json -`), so no shared
// filesystem is needed.
#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "driver/sweep.hpp"
#include "driver/tables.hpp"
#include "scheme/scheme.hpp"
#include "sim/backend.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/io.hpp"

namespace {

/// Single-quote a string for sh -c (the default sibling path may live
/// under a directory with spaces; a user-supplied --launch stays raw shell
/// on purpose).
std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s)
    out += (c == '\'') ? std::string("'\\''") : std::string(1, c);
  out += '\'';
  return out;
}

/// The sofia_sweep binary expected next to this coordinator (the default
/// --launch command); bare "sofia_sweep" = PATH lookup when argv[0] has no
/// directory part.
std::string sibling_sweep(const char* argv0) {
  const std::string self(argv0 != nullptr ? argv0 : "");
  const auto slash = self.rfind('/');
  if (slash == std::string::npos) return "sofia_sweep";
  return shell_quote(self.substr(0, slash + 1) + "sofia_sweep");
}

struct ShardRun {
  std::string command;
  std::FILE* pipe = nullptr;
  std::string document;
  int exit_code = -1;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sofia;
  std::string matrix_name = "suite-overhead";
  std::string backend(sim::kDefaultBackend);
  std::string scheme;  // empty = keep each cell's own scheme axis
  std::string launch;
  std::string json_path = "-";
  std::string cache_dir;
  std::uint32_t workers = 2;
  std::uint32_t threads = 0;
  bool smoke = false;
  bool quiet = false;

  cli::Parser parser("sofia_fleet",
                     "fan a sweep matrix out over N shard workers and merge "
                     "the results");
  parser
      .option("--matrix", matrix_name, "NAME",
              "matrix to run (default: suite-overhead; sofia_sweep --list)")
      .choice("--backend", backend, sim::backend_names(),
              "execution backend every worker runs its jobs on")
      .choice("--scheme", scheme, scheme::scheme_names(),
              "force a protection scheme onto every job (default: keep "
              "each matrix cell's own)")
      .option("--workers", workers, "N",
              "shard workers to launch (default: 2)")
      .option("--threads", threads, "N",
              "threads per worker (default: hardware concurrency / workers)")
      .option("--launch", launch, "CMD",
              "worker launch command; sofia_sweep shard flags are appended "
              "(default: the sofia_sweep next to this binary)")
      .option("--json", json_path, "PATH",
              "write the merged document to PATH (default '-' = stdout)")
      .option("--cache", cache_dir, "DIR",
              "shared content-addressed result cache every worker reuses "
              "and fills — an interrupted fleet run resumes from it "
              "(default: $SOFIA_CACHE when set)")
      .flag("--smoke", smoke, "shrink the matrix to a seconds-long smoke run")
      .flag("--quiet", quiet, "suppress the coordinator's progress lines");
  parser.parse_or_exit(argc, argv);

  if (workers < 1) return parser.fail("--workers must be >= 1");
  if (threads == 0) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    threads = std::max(1u, hw / workers);
  }
  if (launch.empty()) launch = sibling_sweep(argv[0]);

  std::FILE* log = (json_path == "-") ? stderr : stdout;

  try {
    // Expand locally first: an unknown matrix fails here, before any worker
    // is launched, and the job count makes the progress line honest.
    driver::SweepSpec spec = driver::matrix(matrix_name);
    if (smoke) spec = driver::smoke(std::move(spec));
    spec = driver::with_backend(std::move(spec), backend);
    if (!scheme.empty()) spec = driver::with_scheme(std::move(spec), scheme);
    const std::size_t total_jobs = driver::expand_jobs(spec).size();
    if (!quiet)
      std::fprintf(log,
                   "fleet %-20s %zu jobs over %u worker(s) x %u thread(s)\n",
                   spec.name.c_str(), total_jobs, workers, threads);

    // Launch every shard first (they all run concurrently), then drain
    // their stdouts in order. A later worker blocked on a full pipe simply
    // waits for its turn to be drained; nothing deadlocks.
    std::vector<ShardRun> shards(workers);
    for (std::uint32_t k = 0; k < workers; ++k) {
      auto& shard = shards[k];
      shard.command = launch + " --matrix " + matrix_name +
                      " --backend " + backend +
                      (scheme.empty() ? "" : " --scheme " + scheme) +
                      (smoke ? " --smoke" : "") +
                      (cache_dir.empty() ? ""
                                         : " --cache " + shell_quote(cache_dir)) +
                      " --threads " + std::to_string(threads) + " --shard " +
                      std::to_string(k) + "/" + std::to_string(workers) +
                      " --quiet --json -";
      if (!quiet)
        std::fprintf(log, "  [shard %u/%u] %s\n", k, workers,
                     shard.command.c_str());
      shard.pipe = popen(shard.command.c_str(), "r");
      if (shard.pipe == nullptr)
        throw Error("cannot launch worker " + std::to_string(k) + ": '" +
                    shard.command + "'");
    }

    bool all_ok = true;
    for (std::uint32_t k = 0; k < workers; ++k) {
      auto& shard = shards[k];
      std::array<char, 4096> buffer;
      std::size_t n = 0;
      while ((n = std::fread(buffer.data(), 1, buffer.size(), shard.pipe)) > 0)
        shard.document.append(buffer.data(), n);
      const int status = pclose(shard.pipe);
      shard.pipe = nullptr;
      shard.exit_code =
          WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
      if (shard.exit_code != 0 || shard.document.empty()) {
        all_ok = false;
        std::fprintf(stderr,
                     "sofia_fleet: worker %u/%u failed (exit %d%s): '%s'\n", k,
                     workers, shard.exit_code,
                     shard.document.empty() ? ", empty document" : "",
                     shard.command.c_str());
      } else if (!quiet) {
        std::fprintf(log, "  [shard %u/%u] ok (%zu bytes)\n", k, workers,
                     shard.document.size());
      }
    }
    if (!all_ok) return 1;

    std::vector<std::string> documents;
    documents.reserve(shards.size());
    for (auto& shard : shards) documents.push_back(std::move(shard.document));
    const std::string merged = driver::merge_json(documents);
    io::emit_document(json_path, merged);
    if (!quiet)
      std::fprintf(log, "merged %u shard(s) into %s (%zu jobs)\n", workers,
                   json_path.c_str(), total_jobs);
    driver::print_table(json::parse(merged), log);
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "sofia_fleet: %s\n", e.what());
    return 1;
  }
}
