// The SOFIA software-installation flow (paper §III): normalize the
// assembled program, pack it into execution/multiplexor blocks, compute the
// per-block CBC-MAC over the plaintext instructions, interleave the MAC
// words, and CTR-encrypt every word with its control-flow-dependent counter
// (MAC-then-Encrypt, §II-C).
#pragma once

#include "assembler/image.hpp"
#include "assembler/program.hpp"
#include "cfg/cfg.hpp"
#include "crypto/ctr.hpp"
#include "crypto/key_set.hpp"
#include "scheme/scheme.hpp"
#include "xform/block_policy.hpp"
#include "xform/layout.hpp"

namespace sofia::xform {

struct Options {
  BlockPolicy policy = BlockPolicy::paper_default();
  /// Keystream granularity (see crypto/ctr.hpp). Per-word is Alg. 1's
  /// finest-grained semantics; per-pair matches the 64-bit-block hardware.
  crypto::Granularity granularity = crypto::Granularity::kPerWord;
  /// Protection scheme sealing each block — a scheme::scheme_registry()
  /// key. The device must run the same scheme (and keys) to open the image.
  std::string scheme = std::string(scheme::kDefaultScheme);
  assembler::MemoryLayout mem;
};

struct TransformStats {
  LayoutStats layout;
  std::uint32_t text_bytes_in = 0;   ///< 4 * source instructions
  std::uint32_t text_bytes_out = 0;  ///< 4 * block words
  double expansion() const {
    return text_bytes_in == 0 ? 0.0
                              : static_cast<double>(text_bytes_out) / text_bytes_in;
  }
};

struct TransformResult {
  assembler::LoadImage image;      ///< encrypted, loadable binary
  BlockLayout layout;              ///< plaintext layout, for inspection
  assembler::Program normalized;   ///< post-devirtualization program
  cfg::Cfg cfg;                    ///< normalized's CFG, the one packed
  TransformStats stats;
};

/// Run the complete transformation. Throws sofia::TransformError on
/// unanalyzable control flow or layout failures.
TransformResult transform(const assembler::Program& prog,
                          const crypto::KeySet& keys, const Options& opts = {});

/// Plaintext words of one laid-out block (header words followed by encoded
/// instructions) — the transformation's pre-encryption view, exposed for
/// tests and the inspector example.
std::vector<std::uint32_t> block_plaintext(
    const BlockLayout& layout, const Block& block, const crypto::KeySet& keys,
    std::string_view scheme = scheme::kDefaultScheme);

}  // namespace sofia::xform
