// The device flags sofia_asm, sofia_run and sofia_lint share: the
// DeviceProfile axes an image is sealed under and must then be run and
// linted under (--cipher, --scheme, --key-seed, --block-words,
// --store-min). Declared once here, so the three tools cannot drift apart;
// each tool stamps its own extras (--per-word, --backend) onto the profile
// it gets back. --per-word is not shared: the device reads the keystream
// granularity from the image header.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

#include "pipeline/device_profile.hpp"
#include "scheme/scheme.hpp"
#include "support/cli.hpp"

namespace sofia::tools {

struct DeviceFlags {
  std::string cipher = "rectangle80";
  std::string scheme = std::string(sofia::scheme::kDefaultScheme);
  std::string key_seed;           ///< empty = the example keys
  std::uint32_t block_words = 0;  ///< 0 = the policy default
  std::uint32_t store_min = ~0u;  ///< ~0 = the policy default

  void declare(cli::Parser& parser) {
    parser.choice("--cipher", cipher, {"rectangle80", "speck64"}, "device cipher")
        .choice("--scheme", scheme, sofia::scheme::scheme_names(),
                "protection scheme sealing each block")
        .option("--key-seed", key_seed, "n",
                "derive the device KeySet from a seed (default: example keys)")
        .option("--block-words", block_words, "n",
                "block size in words (default 8)")
        .option("--store-min", store_min, "n",
                "first word index where stores may sit (default 4)");
  }

  /// The profile the flags describe. A malformed --key-seed is a usage
  /// error (diagnostic + usage, exit 2); an unusable block geometry throws
  /// sofia::TransformError.
  pipeline::DeviceProfile profile(const cli::Parser& parser) const {
    auto profile = pipeline::DeviceProfile::parse(cipher);
    if (!key_seed.empty()) {
      std::uint64_t seed = 0;
      if (!cli::parse_number(key_seed, seed))
        std::exit(parser.fail("--key-seed: invalid number '" + key_seed + "'"));
      profile = pipeline::DeviceProfile::from_seed(profile.cipher, seed);
    }
    profile.scheme = scheme;  // already validated by the choice flag
    if (block_words != 0) profile.policy.words_per_block = block_words;
    if (store_min != ~0u) profile.policy.store_min_word = store_min;
    profile.policy.validate();
    return profile;
  }
};

}  // namespace sofia::tools
