// Front ends. Two implementations of the same duck-typed interface (step,
// redirect, reset and the FetchCounters); the machine is a template over
// the front end, so every call is direct:
//
//  * VanillaFetch — the unmodified-LEON3 analogue: stream words through the
//    I-cache, decode, deliver; stall at control instructions until the
//    execute side resolves them (LEON3 has no branch prediction).
//
//  * SofiaFetch — the paper's architecture (Fig. 1): the block state
//    machine. Every fetched word is decrypted with its control-flow-
//    dependent counter and the run-time CBC-MAC over the decrypted
//    instructions is compared against the stored MAC words. Which checks
//    apply, and in what order, is not defined here: every block entry goes
//    through sim::admit() (sim/admission.hpp), the definition the
//    functional backend shares. SofiaFetch adds only the timing — I-cache
//    fetch, cipher-engine replay, the cycle each rule fires at, and the
//    store gate that keeps stores out of the MA stage until their block
//    verifies.
//
//    The software cipher work behind an admission is cached per (entry
//    word, prevPC) in a sim::BlockCache: within the run, and behind that in
//    the backend's BlockStore across runs (sim/admission.hpp). The
//    front-cache record is taken on trust, without reading the words
//    through Core::fetch, while no store has hit the text since it was
//    opened and no fetch fault is armed; any other entry fetches its words
//    and reuses a record only when they equal the words it was opened
//    from. Opener::open depends on nothing else, so reuse is bit-identical,
//    and a tampered, faulted or self-modified block is opened afresh.
//
//    Past the image's entry, which the constructor makes, SofiaFetch
//    never enters a block on its own: when fetch wants the next block
//    (run-ahead or a redirect) it leaves the entry due(), and the machine
//    makes it with enter_due(). Between those two calls the
//    machine may replay whole segments from its memo instead
//    (src/sim/machine.cpp); continuation(), staged() and resume() are the
//    front end's part of the state the memo keys on and restores.
//
// Both read raw words through sim::Core::fetch (the one fault-injection
// point) and deliver FetchedInst records tagged with the cycle the
// instruction leaves the IF stage, so the execute side consumes them with
// true timing.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "assembler/image.hpp"
#include "isa/isa.hpp"
#include "scheme/scheme.hpp"
#include "sim/admission.hpp"
#include "sim/cipher_engine.hpp"
#include "sim/config.hpp"
#include "sim/core.hpp"
#include "sim/icache.hpp"

namespace sofia::sim {

/// The field order keeps the record at 32 bytes, all of it in two 16-byte
/// halves: the machine copies it every cycle an instruction moves, and a
/// copy ending in an overlapping move over the small fields (as with them
/// last) cannot forward from the stores that just wrote them.
struct FetchedInst {
  isa::Instruction inst;
  std::uint32_t pc = 0;  ///< byte address of the instruction word
  /// Fetch already followed this (direct) jump; the execute side must not
  /// redirect again.
  bool fetch_redirected = false;
  /// Set on the indirect jump (non-ret jalr) in the exit slot of a block
  /// whose scheme gates indirect transfers: the transfer presents
  /// `exit_label` to its target (see SofiaFetch::redirect). Two plain
  /// fields, not a std::optional, so the compiler builds a staged record
  /// in place rather than on the stack.
  bool gated = false;
  std::uint8_t exit_label = 0;
  std::uint64_t ready = 0;       ///< first cycle the execute side may use it
  std::uint64_t store_gate = 0;  ///< earliest cycle a store may commit
};
static_assert(sizeof(FetchedInst) == 32);

/// A first-in first-out queue of at most `capacity` elements in a ring of
/// fixed storage. The fetch queue and SOFIA's staged deliveries hold a
/// handful of instructions each, pushed and popped every cycle.
template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity)
      : slots_(std::bit_ceil(std::max<std::size_t>(capacity, 1))) {}

  bool empty() const { return head_ == tail_; }
  std::size_t size() const { return tail_ - head_; }
  T& front() { return slots_[head_ & mask()]; }
  /// The i-th element from the front.
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & mask()];
  }
  T& back() { return slots_[(tail_ - 1) & mask()]; }
  void push_back(const T& value) {
    assert(size() < slots_.size());
    slots_[tail_++ & mask()] = value;
  }
  void pop_front() { ++head_; }
  void clear() { head_ = tail_ = 0; }

 private:
  std::size_t mask() const { return slots_.size() - 1; }

  std::vector<T> slots_;
  std::size_t head_ = 0;  ///< index of the front element (unwrapped)
  std::size_t tail_ = 0;  ///< one past the back element (unwrapped)
};

/// What a front end did over the run (SimStats' front-end fields).
struct FetchCounters {
  std::uint64_t words_delivered = 0;
  std::uint64_t mac_words_seen = 0;
  std::uint64_t ctr_ops = 0;
  std::uint64_t cbc_ops = 0;
  std::uint64_t blocks = 0;
  std::uint64_t verifications = 0;

  friend bool operator==(const FetchCounters&,
                         const FetchCounters&) = default;
};

// Both front ends offer:
//
//   std::optional<FetchedInst> step(std::uint64_t cycle, bool queue_full);
//     Advance one cycle; deliver at most one instruction. `queue_full`
//     applies backpressure.
//
//   void redirect(std::uint32_t target, const FetchedInst& from,
//                 std::uint64_t cycle);
//     The taken transfer `from` redirects fetch to `target`, effective at
//     `cycle`. Used for taken conditional branches (squashing the
//     fall-through speculation) and for indirect jumps (which fetch cannot
//     follow on its own). A `gated` transfer presents the
//     kIndirectPrevWord sentinel and must pass the target-set label check.
//
//   const std::optional<ResetEvent>& reset() const;
//     Pending SOFIA reset, if any (valid once its cycle is reached).

class VanillaFetch : public FetchCounters {
 public:
  VanillaFetch(Core& core, ICache& icache, std::uint32_t start_pc);

  std::optional<FetchedInst> step(std::uint64_t cycle, bool queue_full);
  void redirect(std::uint32_t target, const FetchedInst& from,
                std::uint64_t cycle);
  const std::optional<ResetEvent>& reset() const { return reset_; }

 private:
  Core& core_;
  ICache& icache_;
  std::uint32_t pc_;
  std::uint64_t ready_at_ = 0;  ///< fetch in progress completes at this cycle
  bool fetching_ = false;
  bool waiting_ = false;  ///< stopped at an indirect jump / halt
  std::optional<ResetEvent> reset_;
};

class SofiaFetch : public FetchCounters {
 public:
  /// `store` (may be null) holds opened blocks across runs.
  SofiaFetch(Core& core, ICache& icache, CipherEngine& engine,
             const SimConfig& config, const assembler::LoadImage& image,
             BlockStore* store);

  /// Inline: the machine calls it every cycle, and most cycles only hand
  /// over a staged instruction or do nothing.
  std::optional<FetchedInst> step(std::uint64_t cycle, bool queue_full) {
    if (!queue_full && !staged_.empty() && staged_.front().ready <= cycle + 1) {
      // One IF->ID handoff per cycle, paced by the decrypt timestamps.
      const FetchedInst fi = staged_.front();
      staged_.pop_front();
      ++words_delivered;
      return fi;
    }
    // Run ahead into the next block once the current one has drained
    // enough: a small stage buffer keeps at most ~2 blocks in flight, like
    // a fetch queue would.
    if (!waiting_ && !reset_ && staged_.size() <= 2 && cycle >= cont_.cycle)
      due_ = true;
    return std::nullopt;
  }
  /// Leaves the target's entry due().
  void redirect(std::uint32_t target, const FetchedInst& from,
                std::uint64_t cycle);
  const std::optional<ResetEvent>& reset() const { return reset_; }

  /// Where fetch continues: the next block entry, the cycle it starts at
  /// and, after a gated transfer, the exit label the entry must carry.
  struct Continuation {
    std::uint32_t target_word = 0;
    std::uint32_t prev_word = 0;
    std::uint64_t cycle = 0;
    std::optional<std::uint8_t> pending;
  };

  /// A block entry (the continuation) is due; enter_due() makes it.
  bool due() const { return due_; }
  void enter_due() {
    due_ = false;
    const Continuation c = cont_;
    process_block(c.target_word, c.prev_word, c.cycle);
  }
  const Continuation& continuation() const { return cont_; }
  /// Decoded deliveries not yet handed to the fetch queue.
  Ring<FetchedInst>& staged() { return staged_; }
  /// Make `c` the due entry, as a redirect to it would.
  void resume(const Continuation& c) {
    cont_ = c;
    waiting_ = false;
    due_ = true;
  }
  /// The due entry was opened earlier in the run and can be taken on
  /// trust (BlockCache::trusted), so it fetches and opens nothing.
  bool entry_known() {
    return blocks_.trusted(cont_.target_word, cont_.prev_word, core_) !=
           nullptr;
  }
  /// The fetch schedule of an entry at `target_word` (null: invalid offset).
  const scheme::EntryPath* path_of(std::uint32_t target_word) const {
    return blocks_.path_of(target_word);
  }

  /// A store committed at byte address `addr` (see BlockCache::trusted).
  /// True when it hit words fetch reads, so opened blocks went stale.
  bool note_store(std::uint32_t addr) { return blocks_.note_store(addr); }

 private:
  /// When the words of one opened block become available.
  struct BlockTiming {
    std::uint64_t fetch_cursor = 0;  ///< cycle the last word was fetched
    std::vector<std::uint64_t> decrypt_done;  ///< per block word
    std::uint64_t verify_cycle = 0;  ///< verdict (and gate check) fires
    std::uint64_t store_gate = 0;    ///< earliest cycle a store may commit
  };

  /// Process one whole block entry starting at `entry_cycle`: admit it
  /// (sim::admit), time the rule that fired or queue the deliveries, and
  /// decide how fetch continues (sequential speculation, decode-time direct
  /// jump, or wait for the execute side). Sets reset_ on violations.
  void process_block(std::uint32_t target_word, std::uint32_t prev_word,
                     std::uint64_t entry_cycle);

  /// Admit the entry at (target_word, prev_word): take the front cache's
  /// record on trust, or fetch the block's words and open them (or reuse a
  /// cached record when the words match); the entry's timing lands in
  /// timing_.
  const Admission& admit_timed(std::uint32_t target_word,
                               std::uint32_t prev_word,
                               std::uint64_t entry_cycle);

  /// Time the entry of the block at `base_word` along `path`: its I-cache
  /// fetch, the cipher ops on the engine and the store gate.
  void time_entry(std::uint32_t base_word, const scheme::DeviceBlock& dev,
                  const scheme::EntryPath& path, std::uint64_t entry_cycle);

  /// Time the fetch of one block's words along `path` through the I-cache
  /// (`resident`: every line of the path is, and its hits are counted).
  void fetch_timed(std::uint32_t base_word, const scheme::EntryPath& path,
                   std::uint64_t entry_cycle, bool resident);

  /// Replay an opened block's cipher ops on the engine model.
  void replay_timed(const scheme::DeviceBlock& dev,
                    const scheme::EntryPath& path, std::uint64_t entry_cycle);

  Core& core_;
  ICache& icache_;
  CipherEngine& engine_;
  const SimConfig& config_;
  BlockCache blocks_;

  // Per-entry scratch, reused across entries.
  BlockTiming timing_;
  std::vector<std::uint64_t> fetch_done_;
  std::vector<std::uint64_t> ks_done_;

  /// Decoded, time-stamped deliveries: the at most 2 left when the next
  /// block is processed plus that block's slots.
  Ring<FetchedInst> staged_;
  bool waiting_ = false;  ///< stopped at an indirect exit / halt
  bool due_ = false;      ///< the continuation's entry is due
  /// The next entry; a gated redirect's label is consumed by process_block.
  Continuation cont_;
  std::optional<ResetEvent> reset_;
};

}  // namespace sofia::sim
