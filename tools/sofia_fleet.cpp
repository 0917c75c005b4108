// sofia-fleet: multi-worker coordinator for both experiment engines.
// `--tool sweep` (the default) fans out a sofia_sweep matrix, `--tool
// attack` a sofia_attack campaign. The fleet launches N workers, hands
// worker K the `--shard K/N` slice, collects each shard's JSON document from
// the worker's stdout and merges them through the engine's own merge
// (driver::merge_json or campaign::merge_json), producing a document
// byte-identical to a single-process run of that engine.
//
// Workers are shell commands (default: the engine binary next to this
// one), so the fan-out transport is pluggable without code changes:
//   sofia_fleet --workers 4                          # local subprocesses
//   sofia_fleet --workers 2 --launch 'ssh host /opt/sofia/sofia_sweep'
//   sofia_fleet --workers 2 --launch 'docker run -i --rm sofia sofia_sweep'
//   sofia_fleet --tool attack --smoke --launch 'sofia_attack --jobs 500'
// Every worker writes its shard to stdout (`--json -`), so no shared
// filesystem is needed. Flags only one engine takes (sofia_attack's --jobs
// and --seed) ride in --launch.
//
// Exit code: the engine's own verdict on the merged document
// (driver::verdict, campaign::verdict), and the engine's error code (sweep
// 1, attack 2) when a worker fails.
#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "driver/sweep.hpp"
#include "driver/tables.hpp"
#include "scheme/scheme.hpp"
#include "sim/backend.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/io.hpp"

namespace {

using namespace sofia;

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

/// The engine binary expected next to this coordinator (the default
/// --launch command); the bare name = PATH lookup when argv[0] has no
/// directory part.
std::string sibling(const char* argv0, const std::string& binary) {
  const std::string self(argv0 != nullptr ? argv0 : "");
  const auto slash = self.rfind('/');
  if (slash == std::string::npos) return binary;
  return shell_quote(self.substr(0, slash + 1) + binary);
}

/// What --tool picks: the binary a worker runs, how the shard documents
/// fold back, and the exit codes that engine reports.
struct Engine {
  std::string_view tool;
  const char* binary;
  std::string (*merge)(const std::vector<std::string>&);
  int (*verdict)(const json::Value& merged, std::FILE* log);
  /// The engine's exit code for a failed run; a worker exiting below it
  /// still returned a shard (sofia_attack exits 1 on escapes).
  int failure_exit;
};

constexpr Engine kEngines[] = {
    {"sweep", "sofia_sweep", driver::merge_json, driver::verdict, 1},
    {"attack", "sofia_attack", campaign::merge_json, campaign::verdict, 2},
};

struct ShardRun {
  std::string command;
  std::FILE* pipe = nullptr;
  std::string document;
  int exit_code = -1;
};

}  // namespace

int main(int argc, char** argv) {
  std::string tool = "sweep";
  std::string matrix_name;  // empty = suite-overhead (sweep only)
  std::string backend;      // empty = the engine's own default
  std::string scheme;       // empty = keep each cell's own scheme axis
  std::string launch;
  std::string json_path = "-";
  std::string cache_dir;
  std::uint32_t workers = 2;
  std::uint32_t threads = 0;
  bool smoke = false;
  bool quiet = false;

  cli::Parser parser("sofia_fleet",
                     "fan a sweep matrix or an attack campaign out over N "
                     "shard workers and merge the results");
  parser
      .choice("--tool", tool, {"sweep", "attack"},
              "engine every worker runs: sofia_sweep or sofia_attack "
              "--campaign (default: sweep)")
      .option("--matrix", matrix_name, "NAME",
              "sweep matrix to run (default: suite-overhead; sofia_sweep "
              "--list)")
      .choice("--backend", backend, sim::backend_names(),
              "execution backend every worker runs its jobs on (default: "
              "cycle for sweep, functional for attack)")
      .choice("--scheme", scheme, scheme::scheme_names(),
              "force a protection scheme onto every job (default: keep "
              "each matrix cell's own)")
      .option("--workers", workers, "N",
              "shard workers to launch (default: 2)")
      .option("--threads", threads, "N",
              "threads per worker (default: hardware concurrency / workers)")
      .option("--launch", launch, "CMD",
              "worker launch command; the engine's shard flags are appended "
              "(default: the sofia_sweep or sofia_attack next to this "
              "binary)")
      .option("--json", json_path, "PATH",
              "write the merged document to PATH (default '-' = stdout)")
      .option("--cache", cache_dir, "DIR",
              "shared content-addressed result cache every worker reuses "
              "and fills — an interrupted fleet run resumes from it "
              "(default: $SOFIA_CACHE when set)")
      .flag("--smoke", smoke,
            "shrink the matrix or campaign to a seconds-long run")
      .flag("--quiet", quiet, "suppress the coordinator's progress lines");
  parser.parse_or_exit(argc, argv);

  const Engine& engine = *std::find_if(
      std::begin(kEngines), std::end(kEngines),
      [&](const Engine& e) { return e.tool == tool; });
  const bool attack = engine.tool == "attack";
  if (workers < 1) return parser.fail("--workers must be >= 1");
  if (attack && !matrix_name.empty())
    return parser.fail("--matrix is only meaningful with --tool sweep");
  if (matrix_name.empty()) matrix_name = "suite-overhead";
  if (backend.empty())
    backend = attack ? campaign::CampaignSpec{}.backend
                     : std::string(sim::kDefaultBackend);
  if (threads == 0) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    threads = std::max(1u, hw / workers);
  }
  if (launch.empty()) launch = sibling(argv[0], engine.binary);

  std::FILE* log = (json_path == "-") ? stderr : stdout;

  try {
    if (attack) {
      campaign::CampaignSpec spec = campaign::default_campaign();
      if (smoke) spec = campaign::smoke(std::move(spec));
      if (!quiet)
        std::fprintf(log, "fleet %-20s over %u worker(s) x %u thread(s)\n",
                     spec.name.c_str(), workers, threads);
    } else {
      // Expand locally first: an unknown matrix fails here, before any
      // worker is launched, and the job count makes the progress line
      // honest.
      driver::SweepSpec spec = driver::matrix(matrix_name);
      if (smoke) spec = driver::smoke(std::move(spec));
      spec = driver::with_backend(std::move(spec), backend);
      if (!scheme.empty()) spec = driver::with_scheme(std::move(spec), scheme);
      if (!quiet)
        std::fprintf(log,
                     "fleet %-20s %zu jobs over %u worker(s) x %u thread(s)\n",
                     spec.name.c_str(), driver::expand_jobs(spec).size(),
                     workers, threads);
    }

    // Launch every shard first (they all run concurrently), then drain
    // their stdouts in order. A later worker blocked on a full pipe simply
    // waits for its turn to be drained; nothing deadlocks.
    std::vector<ShardRun> shards(workers);
    for (std::uint32_t k = 0; k < workers; ++k) {
      auto& shard = shards[k];
      shard.command = launch +
                      (attack ? " --campaign" : " --matrix " + matrix_name) +
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
      if (shard.exit_code >= engine.failure_exit || shard.document.empty()) {
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
    if (!all_ok) return engine.failure_exit;

    std::vector<std::string> documents;
    documents.reserve(shards.size());
    for (auto& shard : shards) documents.push_back(std::move(shard.document));
    const std::string merged = engine.merge(documents);
    io::emit_document(json_path, merged);
    const json::Value document = json::parse(merged);
    if (!quiet)
      std::fprintf(log, "merged %u shard(s) into %s (%llu jobs)\n", workers,
                   json_path.c_str(),
                   static_cast<unsigned long long>(
                       document.at("job_count", "merged document")
                           .as_uint("job_count")));
    return engine.verdict(document, log);
  } catch (const Error& e) {
    std::fprintf(stderr, "sofia_fleet: %s\n", e.what());
    return engine.failure_exit;
  }
}
