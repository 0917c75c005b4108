// Pluggable protection schemes. A ProtectionScheme owns both sides of the
// per-block protection contract:
//
//  * the toolchain side — a Sealer turns a laid-out block's encoded
//    instructions into the final on-image words (header words + body,
//    encrypted however the scheme prescribes);
//  * the device side — an Opener turns the raw fetched words of one block
//    entry back into plaintext instructions plus a verification verdict
//    and a timing-portable description of the cipher work performed
//    (DeviceBlock), which the cycle-accurate front end replays against
//    its engine model and the functional backend merely counts.
//
// What stays *outside* the scheme, because every scheme shares it: the
// block geometry (BlockPolicy: b words per block, header = 2 for
// execution blocks / 3 for multiplexor blocks), the entry-offset
// discipline (offset 0 = execution entry, 1/2 = the two multiplexor
// paths, >2 = invalid entry), and the decode-time placement rules
// (control only in the exit slot, stores at or past store_min_word).
//
// A scheme is one row of a string-keyed registry mirroring
// sim::backend_registry(): consumers name a scheme (DeviceProfile::scheme
// routes pipeline::Pipeline here) and the registry hands back the row, so
// an alternative protection design is a drop-in sweep axis. sofia-cbcmac,
// flta and null share one CTR block format and differ only in the tag it
// carries (scheme/builtin.hpp); sponge chains its own state.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/ctr.hpp"
#include "crypto/key_set.hpp"
#include "sim/config.hpp"

namespace sofia::scheme {

// ---- toolchain side --------------------------------------------------------

/// Everything the Sealer may depend on about one laid-out block.
///
/// The label fields only matter to forward-edge gating schemes
/// (SchemeTraits::gates_indirect); everything else ignores them, and the
/// toolchain leaves them zero for non-gating schemes. A label is an 8-bit
/// equivalence-class id over indirect target sets: entryN_label is the
/// class the block belongs to when entered through path N (0 = not an
/// indirect target on that path), exit_label is the class this block's
/// exit-slot jalr is allowed to reach (0 = the exit is not indirect).
struct BlockInfo {
  bool is_mux = false;
  std::uint32_t base_word = 0;   ///< word address of the block's first word
  std::uint32_t pred1_word = 0;  ///< prevPC for entry path 1 (word 0)
  std::uint32_t pred2_word = 0;  ///< prevPC for entry path 2 (mux word 1)
  std::uint8_t entry1_label = 0; ///< target-set class when entered via path 1
  std::uint8_t entry2_label = 0; ///< target-set class when entered via path 2
  std::uint8_t exit_label = 0;   ///< target-set class of the exit jalr
};

/// One installation session (fixed keys + granularity). Sealers are cheap
/// per-transform objects; they may cache cipher instances.
class Sealer {
 public:
  virtual ~Sealer() = default;

  /// The block's pre-encryption view: header words followed by the encoded
  /// instructions. Exposed for tests and the toolchain inspector.
  virtual std::vector<std::uint32_t> plaintext(
      const BlockInfo& info, const std::vector<std::uint32_t>& inst_words) const = 0;

  /// The block's final on-image words (plaintext(), encrypted).
  virtual std::vector<std::uint32_t> seal(
      const BlockInfo& info, const std::vector<std::uint32_t>& inst_words) const = 0;
};

// ---- device side -----------------------------------------------------------

/// How a transfer enters a block: the target's word offset selects the
/// block type and multiplexor path, and with it the fetch schedule.
/// Offsets above 2 are invalid entries; the front ends reset before any
/// scheme is consulted, so an EntryPath is always valid.
struct EntryPath {
  bool is_mux = false;
  std::uint32_t offset = 0;            ///< 0 = exec, 1/2 = mux path
  std::uint32_t entry_word_index = 0;  ///< first word fetched (== sched[0])
  std::uint32_t first_inst = 0;        ///< word index of the first instruction
  /// Word indices fetched, in order. Path 1 starts at word 0 and skips
  /// word 1; path 2 starts at word 1.
  std::vector<std::uint32_t> sched;
};

/// Build the fetch schedule for an entry offset (must be <= 2).
EntryPath entry_path(std::uint32_t offset, std::uint32_t words_per_block);

/// One cipher operation over a contiguous span of block words.
struct OpSpan {
  std::uint32_t first = 0;  ///< block word index the op starts at
  std::uint32_t count = 1;  ///< words covered (1 or 2)
};

/// An opened block: plaintext + verdict + the cipher work performed, in
/// issue order. The cycle-accurate front end replays the op lists against
/// its shared-engine model; the functional backend counts them. Timing
/// semantics:
///  * decrypt_ops are CTR-class ops. With serial_decrypt false their
///    counters depend only on addresses, so they issue eagerly at block
///    entry; with serial_decrypt true op n+1 additionally waits for op n
///    and for its span's fetched words (a chained-state scheme).
///  * A word's decrypt completion is max(its fetch, its covering op).
///  * verify_ops are CBC-class ops chained in list order; each op's input
///    is its span's decrypted words.
///  * Verification completes when the last verify op and every word in
///    verify_extra_words are done; the verdict (or the store gate) fires
///    one cycle later.
struct DeviceBlock {
  /// kNone, or the scheme's detection verdict (kMacMismatch /
  /// kStateCorruption), firing when verification completes with
  /// pc = the block's base byte address.
  sim::ResetCause verify_cause = sim::ResetCause::kNone;
  std::uint32_t first_inst = 0;      ///< word index of the first instruction
  std::vector<std::uint32_t> plain;  ///< all b words, decrypted
  std::vector<OpSpan> decrypt_ops;
  std::vector<OpSpan> verify_ops;
  /// Word indices whose decrypt completion additionally gates
  /// verification (typically the header words carrying the stored tag).
  std::vector<std::uint32_t> verify_extra_words;
  bool serial_decrypt = false;
  /// False for an unauthenticated scheme: no verification is counted and
  /// stores are never gated.
  bool performs_verify = true;
  std::uint32_t header_words = 2;  ///< tag words consumed (stats)
  /// Forward-edge gate (gating schemes only). When gate_indirect is true
  /// the machine must check, on any indirect (non-ret jalr) transfer INTO
  /// this entry, that the source block's exit_label equals this entry
  /// path's entry_label; 0 or a mismatch is a kTargetSetViolation.
  bool gate_indirect = false;
  std::uint8_t entry_label = 0;  ///< label of the path actually entered
  std::uint8_t exit_label = 0;   ///< label the exit-slot jalr may reach
};

/// An earlier opening of the same block entry by the same opener (same
/// base word, prevPC and path) from other fetched words: the words it was
/// opened from and the plaintext they opened to, both all b words long.
struct OpenedReference {
  std::span<const std::uint32_t> raw;
  std::span<const std::uint32_t> plain;
};

/// One device session (fixed keys + the image's omega and granularity).
class Opener {
 public:
  virtual ~Opener() = default;

  /// Decrypt and verify one block entry. `raw` holds all b words of the
  /// block; only the indices in `path.sched` were fetched (the rest are
  /// zero and must not be read).
  DeviceBlock open(std::uint32_t base_word, std::uint32_t prev_word,
                   const EntryPath& path,
                   const std::vector<std::uint32_t>& raw) const {
    return open(base_word, prev_word, path, raw, nullptr);
  }

  /// The same, given an earlier opening `ref` of this entry (or null). A
  /// scheme whose keystream depends only on the key, omega, word address
  /// and prevPC may read a path word's keystream off it as
  /// ref.raw ^ ref.plain instead of calling the cipher; the result must
  /// equal the open without `ref`, op lists included.
  virtual DeviceBlock open(std::uint32_t base_word, std::uint32_t prev_word,
                           const EntryPath& path,
                           const std::vector<std::uint32_t>& raw,
                           const OpenedReference* ref) const = 0;
};

// ---- the scheme ------------------------------------------------------------

struct SchemeTraits {
  /// The scheme detects tampering (a tamper-detection test may demand a
  /// reset). False = encryption-only baseline.
  bool authenticated = true;
  /// The CTR granularity axis changes the sealed bytes. False = the
  /// scheme ignores DeviceProfile::granularity (documented per scheme).
  bool uses_granularity = true;
  /// The scheme seals per-block target-set labels and gates indirect
  /// transfers against them at runtime (FLTA-style forward edge). The
  /// toolchain keeps annotated jump-form jalr instructions under such a
  /// scheme instead of devirtualizing them.
  bool gates_indirect = false;
};

/// One registry row: key, traits and the two session factories.
class ProtectionScheme {
 public:
  using SealerFactory = std::unique_ptr<Sealer> (*)(const crypto::KeySet& keys,
                                                    crypto::Granularity gran);
  using OpenerFactory = std::unique_ptr<Opener> (*)(const crypto::KeySet& keys,
                                                    std::uint16_t omega,
                                                    crypto::Granularity gran);

  constexpr ProtectionScheme(std::string_view name, SchemeTraits traits,
                             SealerFactory sealer, OpenerFactory opener)
      : name_(name),
        traits_(traits),
        sealer_(sealer),
        opener_(opener) {}

  /// Registry key, e.g. "sofia-cbcmac".
  std::string_view name() const { return name_; }

  SchemeTraits traits() const { return traits_; }

  /// Toolchain session: keys().omega is the sealed image's omega.
  std::unique_ptr<Sealer> make_sealer(const crypto::KeySet& keys,
                                      crypto::Granularity gran) const {
    return sealer_(keys, gran);
  }

  /// Device session. `omega` and `gran` come from the *image* header, not
  /// the key set — a version mismatch must garble decryption, exactly like
  /// a key mismatch (the cross-version replay attack depends on it).
  std::unique_ptr<Opener> make_opener(const crypto::KeySet& keys,
                                      std::uint16_t omega,
                                      crypto::Granularity gran) const {
    return opener_(keys, omega, gran);
  }

 private:
  std::string_view name_;
  SchemeTraits traits_;
  SealerFactory sealer_;
  OpenerFactory opener_;
};

// ---- registry --------------------------------------------------------------

/// The default scheme every DeviceProfile (and SimConfig) starts with —
/// the paper's MAC-then-encrypt design.
inline constexpr std::string_view kDefaultScheme = "sofia-cbcmac";

/// Built-in schemes in a stable order ("sofia-cbcmac" first).
std::span<const ProtectionScheme> scheme_registry();

/// The registered names, in registry order.
std::vector<std::string> scheme_names();

/// Look up a scheme by registry key; throws sofia::Error listing the
/// registered names for anything unknown.
const ProtectionScheme& get_scheme(std::string_view name);

}  // namespace sofia::scheme
