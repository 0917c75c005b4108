// sofia-lint: static integrity verifier for hardened SOFIA images. Checks
// the full installation contract without running anything: every encoded
// control transfer must land on a block entry sealed for exactly that
// predecessor (seals re-derived per protection scheme and compared against
// the image bytes), plus block-policy conformance, ambiguous predecessors,
// unreachable sealed blocks, dataflow-proven store/indirect-target facts
// and image-metadata mismatches. Findings render as text, as a
// deterministic sofia-lint-v2 JSON document, or as SARIF 2.1.0 for CI
// annotation; --assert-clean turns errors into exit code 1 for CI.
//
//   sofia_lint program.s                      lint the freshly hardened image
//   sofia_lint --workload fib --size 8        same, for a registered workload
//   sofia_lint program.s --image prog.img     lint a saved image against its
//                                             program and key material
//   sofia_lint --image prog.img               image-only metadata checks
//   sofia_lint --rules [id...]                print (or validate) rule ids
//   sofia_lint --workload fib --sarif o.sarif emit a SARIF 2.1.0 document
#include <cstdio>
#include <string>
#include <vector>

#include "assembler/image_io.hpp"
#include "pipeline/pipeline.hpp"
#include "scheme/scheme.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "verify/verify.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace sofia;
  std::string input;
  std::string workload;
  std::string image_path;
  std::string key_seed;
  std::string cipher = "rectangle80";
  std::string scheme(scheme::kDefaultScheme);
  std::string json_path;
  std::string sarif_path;
  std::vector<std::string> rule_ids;
  std::uint64_t seed = 1;
  std::uint32_t size = 0;         // 0 = the workload's default size
  std::uint32_t block_words = 0;  // 0 = policy default
  std::uint32_t store_min = ~0u;  // ~0 = policy default
  bool per_word = false;
  bool assert_clean = false;
  bool rules = false;
  bool quiet = false;

  cli::Parser parser("sofia_lint",
                     "statically verify a hardened image against the SOFIA "
                     "contract");
  parser
      .option("--workload", workload, "NAME",
              "lint a registered workload instead of a source file")
      .option("--seed", seed, "n", "workload generator seed (default 1)")
      .option("--size", size, "n", "workload size (default: its registry size)")
      .option("--image", image_path, "FILE",
              "lint this saved image (default: the freshly hardened one)")
      .choice("--cipher", cipher, {"rectangle80", "speck64"}, "device cipher")
      .choice("--scheme", scheme, scheme::scheme_names(),
              "protection scheme the image was sealed with")
      .option("--key-seed", key_seed, "n",
              "derive the device KeySet from a seed (default: example keys)")
      .flag("--per-word", per_word, "Alg. 1 per-word CTR (default: per-pair)")
      .option("--block-words", block_words, "n", "block size in words (default 8)")
      .option("--store-min", store_min, "n",
              "first word index where stores may sit (default 4)")
      .option("--json", json_path, "PATH",
              "write a sofia-lint-v2 document to PATH ('-' = stdout)")
      .option("--sarif", sarif_path, "PATH",
              "write a SARIF 2.1.0 document to PATH ('-' = stdout)")
      .flag("--assert-clean", assert_clean,
            "exit 1 when any error-severity finding is reported")
      .flag("--rules", rules,
            "print the rule catalog and exit; trailing ids select (and "
            "validate) specific rules")
      .flag("--quiet", quiet, "suppress the text report")
      .optional_positional("input.s", input)
      .positional_list("rule-id", rule_ids);
  parser.parse_or_exit(argc, argv);

  if (rules) {
    // With ids given, validate each against the live catalog and print
    // only those rows; an unknown id names itself and the valid set.
    if (!input.empty()) rule_ids.insert(rule_ids.begin(), input);
    std::vector<const verify::RuleInfo*> rows;
    for (const std::string& id : rule_ids) {
      const verify::RuleInfo* info = verify::find_rule(id);
      if (!info) {
        std::string valid;
        for (const auto& r : verify::rule_catalog()) {
          if (!valid.empty()) valid += ", ";
          valid += r.name;
        }
        std::fprintf(stderr,
                     "sofia_lint: unknown rule id '%s' (valid: %s)\n",
                     id.c_str(), valid.c_str());
        return 2;
      }
      rows.push_back(info);
    }
    if (rows.empty())
      for (const auto& info : verify::rule_catalog()) rows.push_back(&info);
    for (const verify::RuleInfo* info : rows)
      std::printf("%-24s %-8s %.*s\n", std::string(info->name).c_str(),
                  std::string(verify::to_string(info->severity)).c_str(),
                  static_cast<int>(info->description.size()),
                  info->description.data());
    return 0;
  }
  if (!rule_ids.empty())
    return parser.fail("unexpected argument '" + rule_ids.front() +
                       "' (rule ids are only valid with --rules)");
  if (!input.empty() && !workload.empty())
    return parser.fail("give either input.s or --workload, not both");
  if (input.empty() && workload.empty() && image_path.empty())
    return parser.fail("nothing to lint: give input.s, --workload or --image");

  // With a document on stdout, the text report moves to stderr so the
  // output stream stays byte-clean for collectors.
  std::FILE* log = json_path == "-" || sarif_path == "-" ? stderr : stdout;

  try {
    auto profile = pipeline::DeviceProfile::parse(cipher);
    if (!key_seed.empty()) {
      std::uint64_t kseed = 0;
      if (!cli::parse_number(key_seed, kseed))
        return parser.fail("--key-seed: invalid number '" + key_seed + "'");
      profile = pipeline::DeviceProfile::from_seed(profile.cipher, kseed);
    }
    profile.scheme = scheme;  // already validated by the choice flag
    profile.granularity = per_word ? crypto::Granularity::kPerWord
                                   : crypto::Granularity::kPerPair;
    if (block_words != 0) profile.policy.words_per_block = block_words;
    if (store_min != ~0u) profile.policy.store_min_word = store_min;

    auto session = [&]() -> pipeline::Pipeline {
      if (!workload.empty()) {
        const auto& spec = workloads::workload(workload);
        return pipeline::Pipeline::from_workload(
            spec, seed, size != 0 ? size : spec.default_size, profile);
      }
      if (!input.empty())
        return pipeline::Pipeline::from_source_file(input, profile);
      return pipeline::Pipeline::from_image_file(image_path, profile);
    }();

    // A program session lints either its own hardened image or, with
    // --image, the saved image against the program's model.
    const bool external_image = !image_path.empty() &&
                                (!workload.empty() || !input.empty());
    const verify::Report report =
        external_image
            ? session.lint_image(assembler::load_image_file(image_path))
            : session.lint();

    if (!quiet) std::fputs(report.render_text().c_str(), log);

    if (!json_path.empty()) {
      json::Writer w(2);
      w.begin_object();
      w.member("schema", "sofia-lint-v2");
      w.member("name", session.name());
      w.key("profile");
      profile.to_json(w);
      w.key("report");
      report.to_json(w);
      w.end_object();
      io::emit_document(json_path, w.document());
    }

    if (!sarif_path.empty()) {
      json::Writer w(2);
      verify::to_sarif(report, session.name(), w);
      io::emit_document(sarif_path, w.document());
    }

    return assert_clean && !report.clean() ? 1 : 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "sofia_lint: %s\n", e.what());
    return 2;
  }
}
