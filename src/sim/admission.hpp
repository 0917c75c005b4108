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
// the words it was opened from, or, in the front cache, when they cannot
// have changed since (BlockCache::trusted); everything else is opened
// afresh.
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
#include "sim/core.hpp"
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
  using xform::Placement;
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
    else if (const Placement p = policy.placement(decoded->op, w);
             p == Placement::kControlOffExit)
      adm.own = {Rule::kIllegalExit, ResetCause::kIllegalExit, w};
    else if (p == Placement::kRestrictedStore)
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
///
/// A front-cache record can be taken on trust, without refetching its
/// words, while those words cannot have changed since it was opened. One
/// rule decides that for both backends: the front cache goes stale when a
/// committed store hits the text (or a block fetched outside it), or when
/// the armed fetch fault fires (a record opened since may hold the faulted
/// word). While a fault is armed nothing is trusted: every entry refetches,
/// or the fetch counter would never reach the injection index.
class BlockCache {
 public:
  /// Uses `store` when it is bound (or binds it) to this run's device
  /// identity; with a null store or another identity the run opens every
  /// block with a device of its own.
  BlockCache(BlockStore* store, const assembler::LoadImage& image,
             const SimConfig& config);

  /// A store committed at byte address `addr`; true when it made the front
  /// cache stale.
  bool note_store(std::uint32_t addr) {
    if (std::uint64_t{addr} + 4 <= fetch_lo_ || addr >= fetch_hi_) return false;
    stale_ = true;
    return true;
  }

  /// The front cache's record for the entry when it can be taken on trust,
  /// else null. Drops the front cache first if it went stale, so call it
  /// only between blocks: no reference into the cache may be in use.
  const OpenedBlock* trusted(std::uint32_t target_word,
                             std::uint32_t prev_word, const Core& core) {
    if (stale_ || (fault_armed_ && !core.fault_pending())) {
      clear();
      stale_ = false;
      fault_armed_ = core.fault_pending();
    }
    if (fault_armed_) return nullptr;
    const Entry* entry = find(block_key(target_word, prev_word));
    return entry ? entry->rec : nullptr;
  }

  /// Admit the entry at (target_word, prev_word). For a valid entry offset
  /// the block's words along the entry path are fetched through
  /// `core.fetch`. The front cache's record, then the store's, is reused
  /// when its words equal the fetched ones; otherwise sim::admit() opens
  /// the words, handing the opener either record as its
  /// scheme::OpenedReference, and a record new to the store is offered to
  /// it. The result stays valid until the next admit() or trusted().
  const OpenedBlock& admit(std::uint32_t target_word, std::uint32_t prev_word,
                           Core& core);

  /// Words admit() has fetched through Core::fetch.
  std::uint64_t words_fetched() const { return words_fetched_; }

  /// The fetch schedule of an entry at `target_word`, or null for an
  /// invalid entry offset (which fetches nothing).
  const scheme::EntryPath* path_of(std::uint32_t target_word) const {
    const DeviceIdentity& id = device_->identity;
    const std::uint32_t offset = entry_offset(target_word, id.text_base_word,
                                              id.policy.words_per_block);
    return offset <= 2 ? &device_->paths[offset] : nullptr;
  }

 private:
  struct Entry {
    /// No entry has this key: an entry word is a byte PC / 4 (< 2^30).
    static constexpr std::uint64_t kFree = ~0ull;
    std::uint64_t key = kFree;
    const OpenedBlock* rec = nullptr;
    std::unique_ptr<OpenedBlock> own;  ///< a record the store did not take
  };

  /// Forget the front cache (the store is unaffected).
  void clear() {
    for (Entry& e : slots_) e = {};
    spill_.clear();
  }

  /// The front cache is direct-mapped by a multiplicative hash of the key,
  /// so a hit costs no hash-map probe and a run's first entries no node
  /// allocation. An entry whose slot another key holds goes to spill_.
  /// A clean run of the built-in campaign victim enters 11 or 12
  /// (entry, prevPC) pairs and one of a workload 8 to 39, so 64 slots keep
  /// most entries out of the map while the per-run array stays 1.5 KiB.
  static constexpr unsigned kSlotBits = 6;
  Entry& slot(std::uint64_t key) {
    return slots_[(key * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits)];
  }
  /// The front cache's entry for `key`, or null.
  Entry* find(std::uint64_t key) {
    Entry& s = slot(key);
    if (s.key == key) return &s;
    if (spill_.empty()) return nullptr;
    const auto it = spill_.find(key);
    return it == spill_.end() ? nullptr : &it->second;
  }
  /// The same, adding an empty entry when there is none.
  Entry& find_or_add(std::uint64_t key) {
    Entry& s = slot(key);
    if (s.key == key) return s;
    if (s.key == Entry::kFree) {
      s.key = key;
      return s;
    }
    return spill_[key];
  }

  std::unique_ptr<Device> own_device_;
  const Device* device_ = nullptr;
  BlockStore* store_ = nullptr;  ///< null when the run bypasses the store
  std::array<Entry, std::size_t{1} << kSlotBits> slots_{};
  std::unordered_map<std::uint64_t, Entry> spill_;  ///< nodes never move
  std::vector<std::uint32_t> raw_;  ///< one entry's fetched words
  std::uint64_t words_fetched_ = 0;
  /// Byte range a store must hit to make the front cache stale: the text,
  /// widened to every block fetched outside it.
  std::uint64_t fetch_lo_ = 0;
  std::uint64_t fetch_hi_ = 0;
  bool stale_ = false;  ///< a store hit [fetch_lo_, fetch_hi_)
  bool fault_armed_;    ///< the run's fault had yet to fire at the last
                        ///< trusted() call
};

}  // namespace sofia::sim
