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
//    The timing of an entry is reused as well. On a pipelined engine,
//    with every I-cache line of the entry path resident, the fetch,
//    decrypt, verify and engine schedule relative to the entry cycle is a
//    pure function of the entry path (the scheme's op lists depend on
//    nothing else), the entry cycle's parity and the engine's free slots
//    relative to the entry cycle. Each run keeps those schedules by that
//    key. A cache miss, a new key or an iterative engine (whose op history
//    is state) times the entry afresh, so timing and counters are
//    unchanged.
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
    if (!waiting_ && !reset_ && staged_.size() <= 2 && cycle >= cont_cycle_)
      process_block(next_block_word_, cont_prev_word_, cont_cycle_);
    return std::nullopt;
  }
  void redirect(std::uint32_t target, const FetchedInst& from,
                std::uint64_t cycle);
  const std::optional<ResetEvent>& reset() const { return reset_; }

  /// A store committed at byte address `addr` (see BlockCache::trusted).
  void note_store(std::uint32_t addr) { blocks_.note_store(addr); }

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

  /// Time the entry of the block at `base_word` along `path`: from a kept
  /// Schedule when one applies, else by fetch_timed() and replay_timed().
  void time_entry(std::uint32_t base_word, const scheme::DeviceBlock& dev,
                  const scheme::EntryPath& path, std::uint64_t entry_cycle);

  /// Time the fetch of one block's words along `path` through the I-cache
  /// (`resident`: every line of the path is, and its hits are counted).
  void fetch_timed(std::uint32_t base_word, const scheme::EntryPath& path,
                   std::uint64_t entry_cycle, bool resident);

  /// Replay an opened block's cipher ops on the engine model.
  void replay_timed(const scheme::DeviceBlock& dev,
                    const scheme::EntryPath& path, std::uint64_t entry_cycle);

  /// An entry's timing relative to its entry cycle, with every line of its
  /// path resident on a pipelined engine (see the file comment).
  struct Schedule {
    static constexpr std::uint64_t kNoKey = ~0ull;
    std::uint64_t key = kNoKey;  ///< schedule_key() it was timed under
    std::uint64_t fetch_cursor = 0;
    std::uint64_t verify_cycle = 0;
    std::vector<std::uint64_t> decrypt_done;  ///< per block word on the path
    /// Per op class: whether the entry's ops moved the engine's next free
    /// slot, and where to (an op starts at or after the entry cycle, so a
    /// moved slot lies past it).
    bool moves[2] = {false, false};
    std::uint64_t next_slot[2] = {0, 0};
  };

  /// The Schedule key of an entry along `path` at `entry_cycle`: the entry
  /// offset, the entry cycle's parity and the engine's free slots relative
  /// to the entry cycle, clamped at 0 (every op is ready at or after the
  /// entry cycle, so an earlier slot delays nothing). Null when a slot lies
  /// too far ahead to pack.
  std::optional<std::uint64_t> schedule_key(const scheme::EntryPath& path,
                                            std::uint64_t entry_cycle) const;

  Core& core_;
  ICache& icache_;
  CipherEngine& engine_;
  const SimConfig& config_;
  BlockCache blocks_;
  /// Kept schedules, direct-mapped by a multiplicative hash of the key; a
  /// key whose slot another holds is timed afresh and takes the slot. A
  /// paper-sweep run meets a few dozen keys.
  static constexpr unsigned kScheduleBits = 8;
  std::vector<Schedule> schedules_;

  // Per-entry scratch, reused across entries.
  BlockTiming timing_;
  std::vector<std::uint64_t> fetch_done_;
  std::vector<std::uint64_t> ks_done_;

  /// Decoded, time-stamped deliveries: the at most 2 left when the next
  /// block is processed plus that block's slots.
  Ring<FetchedInst> staged_;
  bool waiting_ = false;            ///< stopped at an indirect exit / halt
  std::uint32_t next_block_word_ = 0;  ///< continuation target (word addr)
  std::uint32_t cont_prev_word_ = 0;   ///< prev word for the continuation
  std::uint64_t cont_cycle_ = 0;       ///< earliest continuation cycle
  std::optional<ResetEvent> reset_;

  /// Set by an indirect redirect: the source exit label the next opened
  /// block's entry label must equal (consumed by process_block).
  std::optional<std::uint8_t> pending_entry_check_;
};

}  // namespace sofia::sim
