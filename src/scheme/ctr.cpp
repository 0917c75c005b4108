#include <algorithm>
#include <array>

#include "crypto/cbc_mac.hpp"
#include "scheme/builtin.hpp"

namespace sofia::scheme::detail {

// ---- the CTR block format --------------------------------------------------

void Ctr::seal(const BlockInfo& info, std::span<std::uint32_t> words) const {
  const auto n = static_cast<std::uint32_t>(words.size());
  const bool per_pair = gran == crypto::Granularity::kPerPair;
  for (std::uint32_t j = 0; j < n;) {
    const std::uint32_t prev = j == 0                  ? info.pred1_word
                               : info.is_mux && j == 1 ? info.pred2_word
                                                       : info.base_word + j - 1;
    if (per_pair && !(info.is_mux && j < 2)) {
      const std::uint64_t ks =
          crypto::keystream64(*enc, omega, prev, info.base_word + j);
      words[j] ^= static_cast<std::uint32_t>(ks);
      words[j + 1] ^= static_cast<std::uint32_t>(ks >> 32);
      j += 2;
    } else {
      words[j] ^= crypto::keystream32(*enc, omega, prev, info.base_word + j);
      j += 1;
    }
  }
}

void Ctr::open(const EntryPath& path, std::size_t count,
               std::uint32_t base_word, std::uint32_t prev_word,
               const std::vector<std::uint32_t>& raw,
               const OpenedReference* ref, DeviceBlock& out) const {
  const bool per_pair = gran == crypto::Granularity::kPerPair;
  // Multiplexor entry words are single-word granules; the body pairs up.
  const std::uint32_t body_start = path.is_mux ? 2 : 0;
  for (std::size_t k = 0; k < count;) {
    const std::uint32_t j = path.sched[k];
    const std::uint32_t prev =
        j == path.entry_word_index ? prev_word : base_word + j - 1;
    const std::uint32_t span = per_pair && j >= body_start ? 2 : 1;
    out.decrypt_ops.push_back({j, span});
    if (ref) {
      // The keystream the earlier opening of this entry decrypted with.
      for (std::uint32_t w = j; w < j + span; ++w)
        out.plain[w] = raw[w] ^ ref->raw[w] ^ ref->plain[w];
    } else if (span == 2) {
      const std::uint64_t ks =
          crypto::keystream64(*enc, omega, prev, base_word + j);
      out.plain[j] = raw[j] ^ static_cast<std::uint32_t>(ks);
      out.plain[j + 1] = raw[j + 1] ^ static_cast<std::uint32_t>(ks >> 32);
    } else {
      out.plain[j] =
          raw[j] ^ crypto::keystream32(*enc, omega, prev, base_word + j);
    }
    k += span;
  }
}

std::vector<std::uint32_t> block_words(
    const BlockInfo& info, std::uint32_t h0, std::uint32_t h1,
    const std::vector<std::uint32_t>& inst_words) {
  std::vector<std::uint32_t> words =
      info.is_mux ? std::vector<std::uint32_t>{h0, h0, h1}
                  : std::vector<std::uint32_t>{h0, h1};
  words.insert(words.end(), inst_words.begin(), inst_words.end());
  return words;
}

namespace {

/// The two header words a tag seals (see block_words).
using Header = std::array<std::uint32_t, 2>;

/// Block word index of h1: after the one or two h0 copies.
std::uint32_t h1_index(bool is_mux) { return is_mux ? 2 : 1; }

/// A block's sealer for a tag: the tag's header, then the CTR format.
template <typename Tag>
class CtrSealer final : public Sealer {
 public:
  CtrSealer(const crypto::KeySet& keys, crypto::Granularity gran)
      : tag_(keys), ctr_(keys, keys.omega, gran) {}

  std::vector<std::uint32_t> plaintext(
      const BlockInfo& info,
      const std::vector<std::uint32_t>& inst_words) const override {
    const auto [h0, h1] = tag_.header(info, inst_words);
    return block_words(info, h0, h1, inst_words);
  }

  std::vector<std::uint32_t> seal(
      const BlockInfo& info,
      const std::vector<std::uint32_t>& inst_words) const override {
    std::vector<std::uint32_t> words = plaintext(info, inst_words);
    ctr_.seal(info, words);
    return words;
  }

 private:
  Tag tag_;
  Ctr ctr_;
};

/// A block entry's opener for a tag: the CTR format, then the tag's check.
template <typename Tag>
class CtrOpener final : public Opener {
 public:
  CtrOpener(const crypto::KeySet& keys, std::uint16_t omega,
            crypto::Granularity gran)
      : tag_(keys), ctr_(keys, omega, gran) {}

  using Opener::open;
  DeviceBlock open(std::uint32_t base_word, std::uint32_t prev_word,
                   const EntryPath& path,
                   const std::vector<std::uint32_t>& raw,
                   const OpenedReference* ref) const override {
    DeviceBlock out;
    out.first_inst = path.first_inst;
    out.plain.assign(raw.size(), 0);
    // The keystream depends only on the key, omega, the word address and
    // prevPC, all fixed for this entry: reuse the reference's.
    ctr_.open(path, path.sched.size(), base_word, prev_word, raw, ref, out);
    tag_.check(path, out);
    return out;
  }

 private:
  Tag tag_;
  Ctr ctr_;
};

// ---- the tags --------------------------------------------------------------
//
// A tag seals header() and fills, in check(), the verify ops, the words
// that gate verification, the verdict and any gate labels of an opened
// block whose `plain` words are already decrypted.

/// The MAC keys: k2 for execution blocks, k3 for multiplexor blocks.
class MacKeys {
 public:
  explicit MacKeys(const crypto::KeySet& keys)
      : exec_(keys.exec_mac_cipher()), mux_(keys.mux_mac_cipher()) {}
  const crypto::BlockCipher64& operator()(bool is_mux) const {
    return is_mux ? *mux_ : *exec_;
  }

 private:
  std::unique_ptr<crypto::BlockCipher64> exec_;
  std::unique_ptr<crypto::BlockCipher64> mux_;
};

/// The decrypted instructions of an opened block.
std::span<const std::uint32_t> inst_words(const DeviceBlock& out) {
  return std::span(out.plain).subspan(out.first_inst);
}

/// The run-time CBC-MAC over the decrypted instructions: one chained
/// cipher op per 64-bit word pair.
void push_mac_ops(DeviceBlock& out) {
  const auto b = static_cast<std::uint32_t>(out.plain.size());
  for (std::uint32_t w = out.first_inst; w < b; w += 2)
    out.verify_ops.push_back({w, std::min(2u, b - w)});
}

// The paper's protection design (§II-B/§II-C): a 64-bit CBC-MAC over the
// block's plaintext instructions stored as [M1, M2] (MAC-then-Encrypt).
// The device recomputes the MAC over the decrypted instructions; a
// mismatch pulls reset with kMacMismatch.
class CbcMacTag {
 public:
  explicit CbcMacTag(const crypto::KeySet& keys) : mac_(keys) {}

  Header header(const BlockInfo& info,
                const std::vector<std::uint32_t>& inst_words) const {
    const std::uint64_t tag = crypto::cbc_mac64(mac_(info.is_mux), inst_words);
    return {crypto::mac_word1(tag), crypto::mac_word2(tag)};
  }

  void check(const EntryPath& path, DeviceBlock& out) const {
    // The stored tag sits in the entered M1 copy and the M2 word.
    const std::uint32_t m2_index = h1_index(path.is_mux);
    const std::uint64_t stored_tag =
        (static_cast<std::uint64_t>(out.plain[m2_index]) << 32) |
        out.plain[path.entry_word_index];
    out.verify_extra_words = {path.entry_word_index, m2_index};
    push_mac_ops(out);
    if (crypto::cbc_mac64(mac_(path.is_mux), inst_words(out)) != stored_tag)
      out.verify_cause = sim::ResetCause::kMacMismatch;
  }

 private:
  MacKeys mac_;
};

// Forward-edge gating ("flta"): the second header word is a sealed label
// word L = [entry1 | entry2 | exit] carrying the block's target-set labels
// (scheme/label.hpp) instead of the second MAC half. The 64-bit CBC-MAC is
// computed over instructions ++ L and truncated to 32 bits (M1); L is
// therefore authenticated, and the device gates every indirect (non-ret
// jalr) transfer by checking source exit label == target entry label — a
// mismatch or an unlabeled party resets with kTargetSetViolation. The
// backward edges keep the full counter binding; the forward-edge check
// trades 32 bits of MAC strength for a sound, statically-proved
// indirect-jump policy.
class FltaTag {
 public:
  explicit FltaTag(const crypto::KeySet& keys) : mac_(keys) {}

  Header header(const BlockInfo& info,
                const std::vector<std::uint32_t>& inst_words) const {
    const std::uint32_t label =
        (static_cast<std::uint32_t>(info.entry1_label) << 16) |
        (static_cast<std::uint32_t>(info.entry2_label) << 8) |
        static_cast<std::uint32_t>(info.exit_label);
    return {mac32(info.is_mux, inst_words, label), label};
  }

  void check(const EntryPath& path, DeviceBlock& out) const {
    // Stored authenticator in the entered M1 copy; the label word sits
    // where sofia-cbcmac keeps M2.
    const std::uint32_t label_index = h1_index(path.is_mux);
    const std::uint32_t label = out.plain[label_index];
    out.verify_extra_words = {path.entry_word_index, label_index};
    // Chained MAC ops over the decrypted instructions, then the label.
    push_mac_ops(out);
    out.verify_ops.push_back({label_index, 1});
    if (mac32(path.is_mux, inst_words(out), label) !=
        out.plain[path.entry_word_index])
      out.verify_cause = sim::ResetCause::kMacMismatch;

    out.gate_indirect = true;
    out.entry_label = static_cast<std::uint8_t>(
        path.offset == 2 ? (label >> 8) & 0xFF : (label >> 16) & 0xFF);
    out.exit_label = static_cast<std::uint8_t>(label & 0xFF);
  }

 private:
  // 32-bit authenticator over instructions ++ label word: appending L to
  // the MAC input is what makes a label forgery a MAC mismatch.
  std::uint32_t mac32(bool is_mux, std::span<const std::uint32_t> inst_words,
                      std::uint32_t label) const {
    std::vector<std::uint32_t> input(inst_words.begin(), inst_words.end());
    input.push_back(label);
    return crypto::mac_word1(crypto::cbc_mac64(mac_(is_mux), input));
  }

  MacKeys mac_;
};

// Encryption-only baseline: the MAC replaced by constant marker words and
// no device-side verification at all. The overhead floor for the
// protection sweep — everything left when detection is removed
// (confidentiality and implicit CF binding through garbled decryption, but
// no reset on tampering and no store gate). It builds no MAC ciphers.
class NullTag {
 public:
  explicit NullTag(const crypto::KeySet& /*keys*/) {}

  // Recognizable filler ("NUL1"/"NUL2" in ASCII). Never checked by the
  // device — it only keeps null images layout-compatible with the other
  // CTR schemes.
  Header header(const BlockInfo& /*info*/,
                const std::vector<std::uint32_t>& /*inst_words*/) const {
    return {0x314C554Eu, 0x324C554Eu};
  }

  // Header words are discarded unchecked; no verification, no store gate.
  void check(const EntryPath& /*path*/, DeviceBlock& out) const {
    out.performs_verify = false;
  }
};

template <typename Tag>
std::unique_ptr<Sealer> sealer(const crypto::KeySet& keys,
                               crypto::Granularity gran) {
  return std::make_unique<CtrSealer<Tag>>(keys, gran);
}

template <typename Tag>
std::unique_ptr<Opener> opener(const crypto::KeySet& keys, std::uint16_t omega,
                               crypto::Granularity gran) {
  return std::make_unique<CtrOpener<Tag>>(keys, omega, gran);
}

}  // namespace

const ProtectionScheme kCbcMac{
    "sofia-cbcmac",
    {/*authenticated=*/true, /*uses_granularity=*/true},
    sealer<CbcMacTag>,
    opener<CbcMacTag>};

const ProtectionScheme kFlta{
    "flta",
    {/*authenticated=*/true, /*uses_granularity=*/true,
     /*gates_indirect=*/true},
    sealer<FltaTag>,
    opener<FltaTag>};

const ProtectionScheme kNull{
    "null",
    {/*authenticated=*/false, /*uses_granularity=*/true},
    sealer<NullTag>,
    opener<NullTag>};

}  // namespace sofia::scheme::detail
