// The built-in schemes. Internal to src/scheme/.
//
// ctr.cpp writes SOFIA's block format once (§II-B/§II-C): two header words
// followed by the encoded instructions, the whole block CTR-encrypted with
// control-flow-dependent counters (crypto::pack_counter keystreams). A
// multiplexor block stores its first header word twice, one copy per entry
// path. sofia-cbcmac, flta and null use that format and differ only in
// their *tag*: the two header words it seals and the device-side check.
// sponge.cpp chains its own cipher state through the body and borrows the
// format's per-word CTR for its two header words.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/ctr.hpp"
#include "scheme/scheme.hpp"

namespace sofia::scheme::detail {

/// One session's CTR keystream: E_k1 under omega, at a granularity.
struct Ctr {
  Ctr(const crypto::KeySet& keys, std::uint16_t omega,
      crypto::Granularity gran)
      : enc(keys.encryption_cipher()), omega(omega), gran(gran) {}

  /// CTR-encrypt a block's leading `words` in place (toolchain side).
  /// Word 0 binds to predecessor path 1, a multiplexor's word 1 to path 2,
  /// everything else chains sequentially. Per-pair treats multiplexor
  /// entry words as single-word granules (their predecessors differ) and
  /// pairs everything else on even offsets.
  void seal(const BlockInfo& info, std::span<std::uint32_t> words) const;

  /// CTR-decrypt the first `count` scheduled words of a fetched block
  /// (device side) into `out.plain`, appending one OpSpan per cipher
  /// operation in issue order — the mirror image of seal() for the entered
  /// path. With `ref` (an earlier opening of the same entry) each word's
  /// keystream is ref.raw ^ ref.plain and the cipher is not called; the
  /// ops appended are the same.
  void open(const EntryPath& path, std::size_t count, std::uint32_t base_word,
            std::uint32_t prev_word, const std::vector<std::uint32_t>& raw,
            const OpenedReference* ref, DeviceBlock& out) const;

  std::unique_ptr<crypto::BlockCipher64> enc;
  std::uint16_t omega;
  crypto::Granularity gran;
};

/// A block's pre-encryption words: the header [h0, h1] — a multiplexor
/// block stores [h0, h0, h1], one h0 copy per entry path (§II-D) — then
/// the encoded instructions.
std::vector<std::uint32_t> block_words(
    const BlockInfo& info, std::uint32_t h0, std::uint32_t h1,
    const std::vector<std::uint32_t>& inst_words);

// The registry's rows (scheme.cpp copies them into scheme_registry()).
extern const ProtectionScheme kCbcMac, kFlta, kNull;  // ctr.cpp
extern const ProtectionScheme kSponge;                // sponge.cpp

}  // namespace sofia::scheme::detail
