// sofia-attack: mutation-based adversarial campaigns against the hardened
// device. `--campaign` runs a seeded population of tampered images, forged
// headers, spliced blocks and fault schedules per matrix cell (scheme ×
// cipher × granularity) and reports detection rate, detection latency and
// minimized surviving counterexamples as a sofia-attack-campaign-v1 JSON
// document. The document is byte-identical for any --threads and any
// --shard K/N split. A shard document carries its trials instead of
// tallies, and `--merge out.json shard*.json` collects them by index (each
// exactly once), refolds them as a run does and renders the canonical
// unsharded bytes. `--workers N` runs N shard workers and merges their
// stdout documents (tools/engine_flags.hpp); a worker is any shell command
// (default: this binary):
//   sofia_attack --campaign --smoke --jobs 500 --workers 4
//   sofia_attack --campaign --workers 2 --launch 'ssh host sofia_attack'
//
// Exit code, for a run, a --merge and a --workers run alike: 0 iff every
// authenticated cell detected every effective tamper (the "null"
// encrypt-only baseline is expected to leak and never gates); 1 when an
// authenticated cell has escapes, 2 on usage/errors and when a worker
// fails. A worker that exits 1 has still returned its shard.
#include <cstdio>
#include <string>

#include "cache/result_store.hpp"
#include "campaign/campaign.hpp"
#include "engine_flags.hpp"
#include "pipeline/device_profile.hpp"
#include "scheme/scheme.hpp"
#include "sim/backend.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/io.hpp"

int main(int argc, char** argv) {
  using namespace sofia;
  std::string workload;
  std::string scheme;       // empty = keep the full scheme axis
  std::string cipher;       // empty = keep both ciphers
  std::string granularity;  // empty = keep both granularities
  std::string backend = "functional";
  std::uint32_t size = 0;
  std::uint32_t jobs = 1000;
  std::uint64_t seed = 1;
  bool campaign_run = false;
  bool smoke = false;
  bool mutators = false;
  tools::EngineFlags flags;

  cli::Parser parser("sofia_attack",
                     "adversarial mutation campaigns -> JSON verdicts");
  parser
      .flag("--campaign", campaign_run,
            "run the attack matrix (every registered scheme x cipher x "
            "granularity)")
      .option("--jobs", jobs, "N", "trials per matrix cell (default: 1000)")
      .option("--seed", seed, "N",
              "campaign seed; per-trial streams are substreams of it "
              "(default: 1)")
      .option("--workload", workload, "NAME",
              "victim from the workloads registry (default: the built-in "
              "attack victim)")
      .option("--size", size, "N", "workload size (0 = registry default)")
      .choice("--scheme", scheme, scheme::scheme_names(),
              "restrict the matrix to one protection scheme")
      .choice("--cipher", cipher, {"rectangle80", "speck64"},
              "restrict the matrix to one cipher")
      .choice("--granularity", granularity, {"per-pair", "per-word"},
              "restrict the matrix to one CTR granularity")
      .choice("--backend", backend, sofia::sim::backend_names(),
              "execution backend for every trial (default: functional)")
      .flag("--smoke", smoke,
            "shrink the matrix to one cell per scheme (seconds-long gate)")
      .flag("--mutators", mutators, "list the mutation catalog and exit");
  flags.declare(parser, "per-cell progress table");
  parser.parse_or_exit(argc, argv);

  if (mutators) {
    for (const auto& info : campaign::mutator_catalog())
      std::printf("%-22s %s\n", std::string(info.name).c_str(),
                  std::string(info.description).c_str());
    return 0;
  }
  if (const auto usage = flags.usage_error(); !usage.empty())
    return parser.fail(usage);
  if (jobs < 1) return parser.fail("--jobs must be >= 1");
  if (!campaign_run && flags.merge_out.empty())
    return parser.fail("nothing to do (use --campaign, --merge or --mutators)");
  std::FILE* log = flags.log();

  try {
    if (!flags.merge_out.empty())
      return campaign::verdict(
          driver::merge_files(flags.merge_out, flags.merge_inputs,
                              campaign::merge_json, log),
          log);

    const driver::ShardSpec shard = flags.shard();
    campaign::CampaignSpec spec = campaign::default_campaign();
    if (smoke) spec = campaign::smoke(std::move(spec));
    spec.workload = workload;
    spec.size = size;
    spec.jobs_per_cell = jobs;
    spec.seed = seed;
    spec.backend = backend;
    const auto cipher_kind =
        cipher.empty() ? crypto::CipherKind::kRectangle80
                       : pipeline::DeviceProfile::parse_cipher(cipher);
    std::erase_if(spec.cells, [&](const campaign::CellSpec& cell) {
      if (!scheme.empty() && cell.scheme != scheme) return true;
      if (!cipher.empty() && cell.cipher != cipher_kind) return true;
      if (!granularity.empty() &&
          crypto::to_string(cell.granularity) != granularity)
        return true;
      return false;
    });
    if (spec.cells.empty())
      return parser.fail("the --scheme/--cipher/--granularity filters left "
                         "no matrix cells");

    if (flags.workers > 0) {
      std::fprintf(log, "campaign %-12s %zu cell(s) x %u job(s) over %u "
                        "worker(s)\n",
                   spec.name.c_str(), spec.cells.size(), jobs, flags.workers);
      return campaign::verdict(flags.merge_workers(parser, argc, argv,
                                                   campaign::merge_json, 2,
                                                   log),
                               log);
    }
    if (shard.is_whole()) {
      std::fprintf(log, "campaign %-12s %zu cell(s) x %u job(s) on %u "
                        "thread(s)\n",
                   spec.name.c_str(), spec.cells.size(), jobs, flags.threads);
    } else {
      std::fprintf(log,
                   "campaign %-12s shard %u/%u of %zu cell(s) x %u job(s) "
                   "on %u thread(s)\n",
                   spec.name.c_str(), shard.index, shard.count,
                   spec.cells.size(), jobs, flags.threads);
    }

    campaign::CellProgressFn progress;
    if (!flags.quiet) {
      progress = [log](const campaign::CellResult& cell) {
        std::fprintf(log,
                     "  %-36s jobs %6llu  detected %6llu  harmless %6llu  "
                     "escaped %6llu  rate %6.2f%%\n",
                     cell.cell.label().c_str(),
                     static_cast<unsigned long long>(cell.jobs),
                     static_cast<unsigned long long>(cell.detected),
                     static_cast<unsigned long long>(cell.harmless),
                     static_cast<unsigned long long>(cell.escaped),
                     100.0 * cell.detection_rate());
      };
    }
    const cache::ToolCache cache("sofia_attack", flags.cache_dir,
                                 flags.cache_stats_path, log);
    if (const auto usage = cache.usage_error(); !usage.empty())
      return parser.fail(usage);

    const auto result = campaign::run_campaign(spec, flags.threads, progress,
                                               shard, cache.get());
    std::fprintf(log, "done in %.2f s (%u thread(s)); %s\n",
                 result.wall_seconds, result.threads_used,
                 result.authenticated_clean()
                     ? "authenticated schemes clean"
                     : "ESCAPES in an authenticated scheme");
    cache.report();
    for (const auto& cell : result.cells) {
      if (!cell.authenticated) continue;
      for (const auto& e : cell.escapes) {
        std::string min;
        for (const auto& m : e.minimized) {
          if (!min.empty()) min += " + ";
          min += m.describe();
        }
        std::fprintf(log, "  ESCAPE %-36s job %llu (%s): %s\n",
                     cell.cell.label().c_str(),
                     static_cast<unsigned long long>(e.job), e.status.c_str(),
                     min.c_str());
      }
    }

    if (!flags.json_path.empty()) {
      io::emit_document(flags.json_path, campaign::to_json(result));
      if (flags.json_path != "-")
        std::fprintf(log, "wrote %s\n", flags.json_path.c_str());
    }
    return result.authenticated_clean() ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "sofia_attack: %s\n", e.what());
    return 2;
  }
}
