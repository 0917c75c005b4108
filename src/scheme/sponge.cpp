// SCFP-style sponge protection: authenticated decryption through a
// chained cipher state instead of a separate MAC pass. Each instruction
// word's keystream is squeezed from the running state (E_k1(S)); the
// word's *ciphertext* and absolute address are absorbed back
// (S' = E_k2(S ^ (c | addr << 32))), so any tampered, reordered or
// relocated word sends the state — and every later decryption — into
// garbage. The final state, whitened with the body length, is the block
// tag; its two words are stored in the standard header slots and
// CTR-encrypted with control-flow-dependent counters exactly like
// sofia-cbcmac's MAC words, which is where entry-path binding lives. The
// device recomputes the chain over the fetched ciphertext and resets with
// kStateCorruption on a tag mismatch.
//
// Timing shape: one serial cipher op per body word (state chaining admits
// no eager issue), no separate CBC pass. The CTR granularity axis is
// ignored — the chain is inherently per-word (traits().uses_granularity
// is false).
#include "scheme/builtin.hpp"

namespace sofia::scheme::detail {

namespace {

/// prevPC field of the chain-initialization counter. The initial state is
/// bound to the block's *position* only (not the entered path): the body
/// chain must agree between both multiplexor entry paths, which share
/// every instruction word. Path binding comes from the CTR-encrypted tag
/// words in the header.
constexpr std::uint32_t kChainInitPrev = 0xFFFFFFu;

/// The duplex chain shared by sealer and opener: squeeze one keystream
/// word per instruction word (E_k1 over the state), then absorb the
/// word's *ciphertext* and absolute address (E_k2 over the xored state).
/// Absorbing ciphertext — the value an attacker can touch — is what makes
/// any flipped bit diverge the state for good.
class SpongeChain {
 public:
  SpongeChain(const crypto::BlockCipher64& squeeze,
              const crypto::BlockCipher64& chain, std::uint16_t omega,
              std::uint32_t base_word)
      : squeeze_(squeeze),
        chain_(chain),
        state_(chain.encrypt(
            crypto::pack_counter(omega, kChainInitPrev, base_word))) {}

  std::uint32_t squeeze() const {
    return static_cast<std::uint32_t>(squeeze_.encrypt(state_));
  }

  void absorb(std::uint32_t ciphertext, std::uint32_t abs_word) {
    state_ = chain_.encrypt(
        state_ ^ (static_cast<std::uint64_t>(ciphertext) |
                  (static_cast<std::uint64_t>(abs_word & 0xFFFFFFu) << 32)));
  }

  /// Final tag, whitened with the body word count (length binding).
  std::uint64_t tag(std::uint32_t body_words) const {
    return chain_.encrypt(state_ ^ body_words);
  }

 private:
  const crypto::BlockCipher64& squeeze_;
  const crypto::BlockCipher64& chain_;
  std::uint64_t state_;
};

class SpongeSealer final : public Sealer {
 public:
  explicit SpongeSealer(const crypto::KeySet& keys)
      : ctr_(keys, keys.omega, crypto::Granularity::kPerWord),
        chain_key_(keys.exec_mac_cipher()) {}

  std::vector<std::uint32_t> plaintext(
      const BlockInfo& info,
      const std::vector<std::uint32_t>& inst_words) const override {
    const std::uint32_t header = info.is_mux ? 3 : 2;
    SpongeChain chain(*ctr_.enc, *chain_key_, ctr_.omega, info.base_word);
    for (std::uint32_t i = 0; i < inst_words.size(); ++i) {
      const std::uint32_t c = inst_words[i] ^ chain.squeeze();
      chain.absorb(c, info.base_word + header + i);
    }
    const std::uint64_t tag =
        chain.tag(static_cast<std::uint32_t>(inst_words.size()));
    return block_words(info, static_cast<std::uint32_t>(tag),
                       static_cast<std::uint32_t>(tag >> 32), inst_words);
  }

  std::vector<std::uint32_t> seal(
      const BlockInfo& info,
      const std::vector<std::uint32_t>& inst_words) const override {
    const std::uint32_t header = info.is_mux ? 3 : 2;
    std::vector<std::uint32_t> words = plaintext(info, inst_words);
    // Body: duplex-encrypt in place (the same chain the tag came from).
    SpongeChain chain(*ctr_.enc, *chain_key_, ctr_.omega, info.base_word);
    for (std::uint32_t w = header; w < words.size(); ++w) {
      words[w] ^= chain.squeeze();
      chain.absorb(words[w], info.base_word + w);
    }
    // Header: per-word CTR with the path-binding counters — the same
    // prevPC discipline as sofia-cbcmac's MAC words. A transfer from the
    // wrong predecessor garbles the decrypted tag, and the chain verdict
    // flags it.
    ctr_.seal(info, std::span(words).first(header));
    return words;
  }

 private:
  Ctr ctr_;
  std::unique_ptr<crypto::BlockCipher64> chain_key_;
};

class SpongeOpener final : public Opener {
 public:
  SpongeOpener(const crypto::KeySet& keys, std::uint16_t omega)
      : ctr_(keys, omega, crypto::Granularity::kPerWord),
        chain_key_(keys.exec_mac_cipher()) {}

  using Opener::open;
  // The chain's keystream depends on the fetched ciphertext, so an earlier
  // opening of the entry says nothing about this one: `ref` is ignored.
  DeviceBlock open(std::uint32_t base_word, std::uint32_t prev_word,
                   const EntryPath& path,
                   const std::vector<std::uint32_t>& raw,
                   const OpenedReference* /*ref*/) const override {
    const auto b = static_cast<std::uint32_t>(raw.size());
    DeviceBlock out;
    out.first_inst = path.first_inst;
    out.plain.assign(b, 0);
    out.serial_decrypt = true;

    // Scheduled header words (the entered T1 copy and the T2 slot, the
    // first two fetched): per-word CTR decryption with the
    // control-flow-dependent counter.
    ctr_.open(path, 2, base_word, prev_word, raw, nullptr, out);
    const std::uint32_t entry = path.entry_word_index;
    const std::uint32_t tag_hi = path.sched[1];
    const std::uint64_t stored_tag =
        (static_cast<std::uint64_t>(out.plain[tag_hi]) << 32) |
        out.plain[entry];

    // Body: recompute the duplex chain over the fetched ciphertext. One
    // serial cipher op per word — op n+1 waits on op n and on the word's
    // fetch (the absorbed ciphertext is data, not just an address).
    SpongeChain chain(*ctr_.enc, *chain_key_, ctr_.omega, base_word);
    for (std::uint32_t w = path.first_inst; w < b; ++w) {
      out.decrypt_ops.push_back({w, 1});
      out.plain[w] = raw[w] ^ chain.squeeze();
      chain.absorb(raw[w], base_word + w);
    }
    const std::uint64_t computed_tag = chain.tag(b - path.first_inst);

    // Verification is the tag comparison at the end of the chain: no
    // separate CBC pass, completion gated by the header decrypts and the
    // last chain op.
    out.verify_extra_words = {entry, tag_hi, b - 1};
    if (computed_tag != stored_tag)
      out.verify_cause = sim::ResetCause::kStateCorruption;
    return out;
  }

 private:
  Ctr ctr_;
  std::unique_ptr<crypto::BlockCipher64> chain_key_;
};

}  // namespace

const ProtectionScheme kSponge{
    "sponge",
    {/*authenticated=*/true, /*uses_granularity=*/false},
    [](const crypto::KeySet& keys, crypto::Granularity /*gran*/)
        -> std::unique_ptr<Sealer> {
      return std::make_unique<SpongeSealer>(keys);
    },
    [](const crypto::KeySet& keys, std::uint16_t omega,
       crypto::Granularity /*gran*/) -> std::unique_ptr<Opener> {
      return std::make_unique<SpongeOpener>(keys, omega);
    }};

}  // namespace sofia::scheme::detail
