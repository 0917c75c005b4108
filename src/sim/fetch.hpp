// Front ends. Two implementations of the same interface:
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
//    the backend's BlockStore across runs (sim/admission.hpp). Every entry
//    still fetches its words through the I-cache and Core::fetch and
//    replays the block's cipher ops on the engine, so timing, counters and
//    fault injection are unchanged. A cached record is reused only when
//    the words just fetched equal the words it was opened from:
//    Opener::open depends on nothing else, so reuse is bit-identical, and
//    a tampered, faulted or self-modified block is opened afresh.
//
// Both read raw words through sim::Core::fetch (the one fault-injection
// point) and deliver FetchedInst records tagged with the cycle the
// instruction leaves the IF stage, so the execute side consumes them with
// true timing.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
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

struct FetchedInst {
  isa::Instruction inst;
  std::uint32_t pc = 0;          ///< byte address of the instruction word
  std::uint64_t ready = 0;       ///< first cycle the execute side may use it
  std::uint64_t store_gate = 0;  ///< earliest cycle a store may commit
  /// Fetch already followed this (direct) jump; the execute side must not
  /// redirect again.
  bool fetch_redirected = false;
};

class FetchUnit {
 public:
  virtual ~FetchUnit() = default;

  /// Advance one cycle; deliver at most one instruction. `queue_full`
  /// applies backpressure.
  virtual std::optional<FetchedInst> step(std::uint64_t cycle, bool queue_full) = 0;

  /// A taken transfer executed at byte address `from_pc` redirects fetch to
  /// `target`, effective at `cycle`. Used for taken conditional branches
  /// (squashing the fall-through speculation) and for indirect jumps (which
  /// fetch cannot follow on its own). `indirect` marks a non-ret jalr:
  /// under a forward-edge gating scheme the transfer presents the
  /// kIndirectPrevWord sentinel and must pass the target-set label check.
  virtual void redirect(std::uint32_t target, std::uint32_t from_pc,
                        std::uint64_t cycle, bool indirect = false) = 0;

  /// Pending SOFIA reset, if any (valid once its cycle is reached).
  virtual std::optional<ResetEvent> reset() const = 0;

  std::uint64_t words_delivered = 0;
  std::uint64_t mac_words_seen = 0;
  std::uint64_t ctr_ops = 0;
  std::uint64_t cbc_ops = 0;
  std::uint64_t blocks = 0;
  std::uint64_t verifications = 0;
};

class VanillaFetch final : public FetchUnit {
 public:
  VanillaFetch(Core& core, ICache& icache, std::uint32_t start_pc);

  std::optional<FetchedInst> step(std::uint64_t cycle, bool queue_full) override;
  void redirect(std::uint32_t target, std::uint32_t from_pc,
                std::uint64_t cycle, bool indirect = false) override;
  std::optional<ResetEvent> reset() const override { return reset_; }

 private:
  Core& core_;
  ICache& icache_;
  std::uint32_t pc_;
  std::uint64_t ready_at_ = 0;  ///< fetch in progress completes at this cycle
  bool fetching_ = false;
  bool waiting_ = false;  ///< stopped at an indirect jump / halt
  std::optional<ResetEvent> reset_;
};

class SofiaFetch final : public FetchUnit {
 public:
  /// `store` (may be null) holds opened blocks across runs.
  SofiaFetch(Core& core, ICache& icache, CipherEngine& engine,
             const SimConfig& config, const assembler::LoadImage& image,
             BlockStore* store);

  std::optional<FetchedInst> step(std::uint64_t cycle, bool queue_full) override;
  void redirect(std::uint32_t target, std::uint32_t from_pc,
                std::uint64_t cycle, bool indirect = false) override;
  std::optional<ResetEvent> reset() const override { return reset_; }

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

  /// Admit the entry at (target_word, prev_word): fetch the block's words,
  /// open them (or reuse a cached record when the words match) and replay
  /// the cipher ops; the resulting timing lands in timing_.
  const Admission& admit_timed(std::uint32_t target_word,
                               std::uint32_t prev_word,
                               std::uint64_t entry_cycle);

  /// Fetch one block's words along `path` through the I-cache into raw_.
  void fetch_timed(std::uint32_t base_word, const scheme::EntryPath& path,
                   std::uint64_t entry_cycle);

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
  std::vector<std::uint32_t> raw_;
  std::vector<std::uint64_t> fetch_done_;
  std::vector<std::uint64_t> ks_done_;

  std::deque<FetchedInst> staged_;  ///< decoded, time-stamped deliveries
  bool waiting_ = false;            ///< stopped at an indirect exit / halt
  std::uint32_t next_block_word_ = 0;  ///< continuation target (word addr)
  std::uint32_t cont_prev_word_ = 0;   ///< prev word for the continuation
  std::uint64_t cont_cycle_ = 0;       ///< earliest continuation cycle
  std::optional<ResetEvent> reset_;

  /// Forward-edge gate state (gating schemes only): what the scheme said
  /// about each opened block's exit, keyed by its exit word address.
  struct ExitInfo {
    bool gated = false;
    std::uint8_t exit_label = 0;
  };
  std::unordered_map<std::uint32_t, ExitInfo> exit_info_;
  /// Set by an indirect redirect: the source exit label the next opened
  /// block's entry label must equal (consumed by process_block).
  std::optional<std::uint8_t> pending_entry_check_;
};

}  // namespace sofia::sim
