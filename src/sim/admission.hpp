// Block admission: the one definition of the order in which the SOFIA
// device vets a block entry (paper §II-B, §II-E), shared by both execution
// backends. In check order:
//
//   1. entry offset: a transfer may land only on word 0, 1 or 2 of a block
//      (the execution entry or one of the two multiplexor paths);
//   2. the protection scheme's decrypt-and-verify verdict;
//   3. the forward-edge gate (gating schemes only): an indirect transfer
//      must land on an entry sealed with the source exit's target-set label;
//   4. per word, from the first instruction slot on: the word decodes, a
//      control instruction sits only in the exit slot, a store only at or
//      past BlockPolicy::store_min_word.
//
// The first rule that fires pulls the reset line. admit() evaluates every
// rule that is a property of the block itself. The gate is the one rule
// that depends on how the block was reached, so Admission::check() splices
// it into the order per transfer, and a cached Admission stays valid for
// any incoming transfer. Each backend only maps "rule at block word w" onto
// its own clock.
//
// An admission depends on nothing but the device (DeviceIdentity), the
// (entry word, prevPC) pair and the words fetched along the entry path. So
// opened blocks are kept at two levels, both shared by the two backends:
// a per-run front cache (BlockCache) and, behind it, a store that outlives
// the run (BlockStore, one per backend instance). A record is reused only
// for the same device and pair, and only when the words just fetched equal
// the words it was opened from; everything else is opened afresh.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "assembler/image.hpp"
#include "isa/isa.hpp"
#include "scheme/scheme.hpp"
#include "sim/config.hpp"
#include "xform/block_policy.hpp"

namespace sofia::sim {

struct Admission {
  /// The rules, in check order.
  enum class Rule : std::uint8_t {
    kInvalidEntry,        ///< fires before anything is fetched
    kVerdict,             ///< fires when verification completes
    kTargetSet,           ///< fires when verification completes
    kIllegalInstruction,  ///< word rules: fire when their word decodes
    kIllegalExit,
    kRestrictedStore,
    kNone,  ///< admitted
  };

  /// A rule that fired, at block word `word`: the entry word for
  /// kInvalidEntry, the offending word for the word rules, 0 otherwise.
  struct Violation {
    Rule rule = Rule::kNone;
    ResetCause cause = ResetCause::kNone;
    std::uint32_t word = 0;

    bool fired() const { return rule != Rule::kNone; }
    bool at_word() const {
      return fired() && rule >= Rule::kIllegalInstruction;
    }
  };

  std::uint32_t base_word = 0;  ///< word address of the block's first word
  /// The first rule the block trips by itself (the gate aside).
  Violation own;
  std::uint32_t first_inst = 0;  ///< block word index of insts[0]
  /// The decoded instruction slots, up to the first word rule (all of them
  /// when none fires).
  std::vector<isa::Instruction> insts;
  bool gate_indirect = false;    ///< the scheme gates indirect transfers
  std::uint8_t entry_label = 0;  ///< label of the entered path
  std::uint8_t exit_label = 0;   ///< label the exit jalr may reach

  /// The rule a transfer into this entry trips, in check order: the gate
  /// comes after the entry and verdict rules and before the word rules.
  /// `pending` is the source exit label of a gated indirect transfer,
  /// nullopt for any other.
  Violation check(std::optional<std::uint8_t> pending) const {
    if (own.rule > Rule::kTargetSet && pending &&
        (!gate_indirect || entry_label == 0 || entry_label != *pending))
      return {Rule::kTargetSet, ResetCause::kTargetSetViolation, 0};
    return own;
  }

  /// Byte address a reset for `v` reports.
  std::uint32_t reset_pc(const Violation& v) const {
    return (base_word + v.word) * 4;
  }
};

/// The fetch schedules of the three valid entry offsets, indexed by offset
/// (scheme::entry_path), built once per Device (below).
using EntryPaths = std::array<scheme::EntryPath, 3>;

inline EntryPaths entry_paths(std::uint32_t words_per_block) {
  return {scheme::entry_path(0, words_per_block),
          scheme::entry_path(1, words_per_block),
          scheme::entry_path(2, words_per_block)};
}

/// Word offset of `target_word` within its block: 0 enters an execution
/// block, 1 and 2 the multiplexor paths, anything else is invalid.
inline std::uint32_t entry_offset(std::uint32_t target_word,
                                  std::uint32_t text_base_word,
                                  std::uint32_t words_per_block) {
  return (target_word - text_base_word) % words_per_block;
}

/// Admit the entry into the block holding `target_word`; `paths` is
/// entry_paths(policy.words_per_block). `open(base_word, path)` fetches the
/// block's words along `path`, opens them through the protection scheme and
/// returns the scheme::DeviceBlock (by value or by reference); it is called
/// only for a valid entry offset.
template <typename Open>
Admission admit(std::uint32_t target_word, std::uint32_t text_base_word,
                const xform::BlockPolicy& policy, const EntryPaths& paths,
                Open&& open) {
  using Rule = Admission::Rule;
  const std::uint32_t b = policy.words_per_block;
  const std::uint32_t offset = entry_offset(target_word, text_base_word, b);
  Admission adm;
  adm.base_word = target_word - offset;
  if (offset > 2) {
    adm.own = {Rule::kInvalidEntry, ResetCause::kInvalidEntry, offset};
    return adm;
  }
  const scheme::DeviceBlock& dev = open(adm.base_word, paths[offset]);
  adm.first_inst = dev.first_inst;
  adm.gate_indirect = dev.gate_indirect;
  adm.entry_label = dev.entry_label;
  adm.exit_label = dev.exit_label;
  if (dev.verify_cause != ResetCause::kNone) {
    adm.own = {Rule::kVerdict, dev.verify_cause, 0};
    return adm;
  }
  adm.insts.reserve(b - dev.first_inst);
  for (std::uint32_t w = dev.first_inst; w < b; ++w) {
    const auto decoded = isa::decode(dev.plain[w]);
    if (!decoded)
      adm.own = {Rule::kIllegalInstruction, ResetCause::kIllegalInstruction, w};
    else if (isa::is_control(decoded->op) && w != b - 1)
      adm.own = {Rule::kIllegalExit, ResetCause::kIllegalExit, w};
    else if (isa::is_store(decoded->op) && w < policy.store_min_word)
      adm.own = {Rule::kRestrictedStore, ResetCause::kRestrictedStore, w};
    if (adm.own.fired()) return adm;
    adm.insts.push_back(*decoded);
  }
  return adm;
}

// ---- opened blocks ----------------------------------------------------------

/// Everything opening a block depends on besides its (entry word, prevPC)
/// and its fetched words: the device's scheme and keys, the image's omega
/// and CTR granularity, the block policy and the text base.
struct DeviceIdentity {
  std::string scheme;
  crypto::KeySet keys;
  std::uint16_t omega = 0;
  crypto::Granularity granularity = crypto::Granularity::kPerWord;
  xform::BlockPolicy policy;
  std::uint32_t text_base_word = 0;

  static DeviceIdentity of(const assembler::LoadImage& image,
                           const SimConfig& config);

  friend bool operator==(const DeviceIdentity&,
                         const DeviceIdentity&) = default;
};

/// The device side of one identity, built once: the scheme's opener (its
/// key schedules) and the entry paths.
struct Device {
  explicit Device(DeviceIdentity id);

  DeviceIdentity identity;
  std::unique_ptr<scheme::Opener> opener;
  EntryPaths paths;
};

/// Key of a block entry: (entry word << 32) | prevPC word.
inline std::uint64_t block_key(std::uint32_t target_word,
                               std::uint32_t prev_word) {
  return (static_cast<std::uint64_t>(target_word) << 32) | prev_word;
}

/// One admitted block entry: the words it was opened from and what they
/// opened to. raw is empty for an invalid entry, which fetches and opens
/// nothing.
struct OpenedBlock {
  std::uint64_t key = 0;  ///< block_key() of the entry
  /// All b words of the block as fetched along the entry path (zero off
  /// the path).
  std::vector<std::uint32_t> raw;
  scheme::DeviceBlock dev;
  Admission adm;
};

/// Opened blocks that outlive a run: one store per backend instance, shared
/// by every run on it and safe to use from concurrent runs. The first run
/// that asks binds the store to its device identity; runs of any other
/// identity bypass it. Slots are filled insert-if-absent and never
/// replaced, so the first words opened at a pair (a session's clean run)
/// keep the slot, and tampered or faulted words simply miss. Lookups take
/// no lock. The slot count is capped at one per text word of the binding
/// image: a clean program has at most three entries per block, each sealed
/// for one prevPC, so the cap leaves room for pairs only tampering reaches.
class BlockStore {
 public:
  BlockStore();
  ~BlockStore();
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  /// The store's device when `identity` is the store's own, else nullptr.
  /// The first call binds the store, sized for a `text_words`-word text.
  const Device* device(const DeviceIdentity& identity,
                       std::size_t text_words);

  /// The record at `key`, if one was stored.
  const OpenedBlock* find(std::uint64_t key) const;

  /// Take `rec` (leaving it null) when its key has no record yet and the
  /// store is below capacity; otherwise leave it with the caller.
  void offer(std::unique_ptr<OpenedBlock>& rec);

  /// Records stored, and the cap on them (0 until bound).
  std::size_t size() const;
  std::size_t capacity() const;

 private:
  struct Table;
  std::mutex bind_mutex_;
  std::unique_ptr<Table> table_;        ///< written once, under bind_mutex_
  std::atomic<Table*> bound_{nullptr};  ///< table_ once it is complete
};

/// One run's block admissions: a front cache by (entry word, prevPC) in
/// front of the backend's BlockStore.
class BlockCache {
 public:
  /// Uses `store` when it is bound (or binds it) to this run's device
  /// identity; with a null store or another identity the run opens every
  /// block with a device of its own.
  BlockCache(BlockStore* store, const assembler::LoadImage& image,
             const SimConfig& config);

  /// The front cache's record for the entry, taken on trust: for a caller
  /// that knows the fetched words cannot have changed since it was opened.
  const OpenedBlock* cached(std::uint32_t target_word,
                            std::uint32_t prev_word) const {
    const auto it = front_.find(block_key(target_word, prev_word));
    return it == front_.end() ? nullptr : it->second.rec;
  }

  /// Admit the entry at (target_word, prev_word). For a valid entry offset
  /// `fetch(base_word, path)` reads the block's words along `path` and
  /// returns all b of them (zero off the path). The front cache's record,
  /// then the store's, is reused when its words equal the fetched ones;
  /// otherwise sim::admit() opens the words and the record is offered to
  /// the store. The result stays valid until the next admit() or clear().
  template <typename Fetch>
  const OpenedBlock& admit(std::uint32_t target_word, std::uint32_t prev_word,
                           Fetch&& fetch);

  /// Forget the front cache (the store is unaffected).
  void clear() { front_.clear(); }

 private:
  struct Entry {
    const OpenedBlock* rec = nullptr;
    std::unique_ptr<OpenedBlock> own;  ///< a record the store did not take
  };

  std::unique_ptr<Device> own_device_;
  const Device* device_ = nullptr;
  BlockStore* store_ = nullptr;  ///< null when the run bypasses the store
  std::unordered_map<std::uint64_t, Entry> front_;
};

template <typename Fetch>
const OpenedBlock& BlockCache::admit(std::uint32_t target_word,
                                     std::uint32_t prev_word, Fetch&& fetch) {
  const DeviceIdentity& id = device_->identity;
  const std::uint64_t key = block_key(target_word, prev_word);
  Entry& entry = front_[key];
  const std::uint32_t offset = entry_offset(target_word, id.text_base_word,
                                            id.policy.words_per_block);
  const std::vector<std::uint32_t>* raw = nullptr;
  if (offset <= 2) {
    raw = &fetch(target_word - offset, device_->paths[offset]);
    if (entry.rec && entry.rec->raw == *raw) return *entry.rec;
    if (store_) {
      const OpenedBlock* stored = store_->find(key);
      if (stored && stored->raw == *raw) return *(entry.rec = stored);
    }
  }
  auto rec = std::make_unique<OpenedBlock>();
  rec->key = key;
  rec->adm = sim::admit(
      target_word, id.text_base_word, id.policy, device_->paths,
      [&](std::uint32_t base_word,
          const scheme::EntryPath& path) -> const scheme::DeviceBlock& {
        rec->raw = *raw;
        rec->dev = device_->opener->open(base_word, prev_word, path, rec->raw);
        return rec->dev;
      });
  entry.rec = rec.get();
  if (store_ && !rec->raw.empty()) store_->offer(rec);
  entry.own = std::move(rec);
  return *entry.rec;
}

}  // namespace sofia::sim
