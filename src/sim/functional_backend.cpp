#include "sim/functional_backend.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "isa/isa.hpp"
#include "scheme/scheme.hpp"
#include "sim/admission.hpp"
#include "sim/core.hpp"

namespace sofia::sim {

namespace {

using isa::Instruction;

// One architectural interpreter run: the shared core (sim/core.hpp) driven
// block by block, each entry admitted through sim::admit()
// (sim/admission.hpp) — the same rules in the same order as the cycle
// machine, minus every timing decision.
class FunctionalMachine {
 public:
  FunctionalMachine(const assembler::LoadImage& image, const SimConfig& config,
                    BlockStore& store)
      : image_(image),
        config_(config),
        core_(image, config.fault, result_) {
    if (image.sofia) blocks_.emplace(&store, image, config);
  }

  RunResult run() {
    if (image_.sofia) {
      run_sofia();
      result_.stats.fetch_words = blocks_->words_fetched();
    } else {
      run_vanilla();
    }
    // No timing model: "cycles" is the retired instruction count, and the
    // reset/trace timestamps below use the same clock.
    result_.stats.cycles = result_.stats.insts;
    return std::move(result_);
  }

 private:
  // ---- outcome plumbing ---------------------------------------------------

  void finish(RunResult::Status status) {
    result_.status = status;
    done_ = true;
  }

  void reset(ResetCause cause, std::uint32_t pc) {
    result_.reset = ResetEvent{cause, result_.stats.insts, pc};
    finish(RunResult::Status::kReset);
  }

  /// Instruction budget (SimConfig::max_cycles repurposed as an
  /// instruction count — the only clock this backend has).
  bool budget_ok() {
    if (result_.stats.insts < config_.max_cycles) return true;
    finish(RunResult::Status::kMaxCycles);
    return false;
  }

  // ---- fetch path ---------------------------------------------------------

  /// The admitted block entry at (target_word, prev_word), from the front
  /// cache when its words cannot have changed. Only called between blocks,
  /// as BlockCache::trusted() requires.
  const Admission& enter_block(std::uint32_t target_word,
                               std::uint32_t prev_word) {
    if (const OpenedBlock* rec =
            blocks_->trusted(target_word, prev_word, core_))
      return rec->adm;
    auto& st = result_.stats;
    ++st.blocks_fetched;
    const OpenedBlock& rec = blocks_->admit(target_word, prev_word, core_);
    // A record reused from either cache counts the work its open did.
    if (!rec.raw.empty()) {
      st.ctr_ops += rec.dev.decrypt_ops.size();
      st.cbc_ops += rec.dev.verify_ops.size();
      st.mac_words += rec.dev.header_words;
      if (rec.dev.performs_verify) ++st.mac_verifications;
    }
    return rec.adm;
  }

  // ---- execution ----------------------------------------------------------

  void run_sofia() {
    std::uint32_t target_word = image_.entry / 4;
    std::uint32_t prev_word = image_.entry_prev;
    const std::uint32_t b = config_.policy.words_per_block;
    while (!done_) {
      const Admission& blk = enter_block(target_word, prev_word);
      const Admission::Violation v =
          blk.check(std::exchange(pending_, std::nullopt));
      if (v.fired()) {
        reset(v.cause, blk.reset_pc(v));
        return;
      }
      if (blk.insts.empty()) {
        result_.fault = "block policy leaves no instruction slots";
        finish(RunResult::Status::kFault);
        return;
      }
      // The block retires up to `end` instructions: all of them, or as
      // many as the budget has left. Where the budget runs out inside the
      // block the run stops at the same instruction a per-instruction check
      // would.
      const std::size_t n = blk.insts.size();
      const std::size_t end = static_cast<std::size_t>(std::min<std::uint64_t>(
          n, config_.max_cycles - result_.stats.insts));
      const isa::Instruction* insts = blk.insts.data();
      std::uint32_t pc = (blk.base_word + blk.first_inst) * 4;
      std::uint32_t next = 0;
      for (std::size_t i = 0; i < end;) {
        if (insts[i].op == isa::Opcode::kNop) {
          // A run of padding NOPs retires in one step.
          std::size_t k = 1;
          while (i + k < end && insts[i + k].op == isa::Opcode::kNop) ++k;
          retire_nops(k, pc);
          i += k;
          pc += static_cast<std::uint32_t>(k) * 4;
          next = pc;
        } else {
          next = exec(insts[i], pc);
          if (done_) return;
          ++i;
          pc += 4;
        }
      }
      if (end < n) {
        finish(RunResult::Status::kMaxCycles);
        return;
      }
      // The exit word decided where fetch continues; its own address is
      // the next block's prevPC (identical for taken transfers, direct
      // jumps and sequential fall-through). A gated indirect exit instead
      // presents the canonical sentinel and arms the label check.
      if (blk.gate_indirect && isa::is_indirect_jump(blk.insts.back())) {
        pending_ = blk.exit_label;
        prev_word = assembler::kIndirectPrevWord;
      } else {
        prev_word = blk.base_word + b - 1;
      }
      target_word = next / 4;
    }
  }

  void run_vanilla() {
    text_.assign(image_.text.size(), Predecoded{});
    std::uint32_t pc = image_.entry;
    while (!done_) {
      if (!budget_ok()) return;
      const Instruction* in = fetch_decoded(pc);
      if (!in) {
        reset(ResetCause::kIllegalInstruction, pc);
        return;
      }
      ++result_.stats.fetch_words;
      pc = exec(*in, pc);
    }
  }

  /// The instruction at byte PC `pc` on a vanilla image, or null when its
  /// word does not decode. A text word is fetched and decoded once and
  /// then reused until a store into it (exec drops it). While an armed
  /// fetch fault is pending every fetch goes through the core, so the
  /// fault fires at its index and its flipped word is never kept.
  const Instruction* fetch_decoded(std::uint32_t pc) {
    const std::uint32_t offset = pc - image_.text_base;
    Predecoded* slot = pc % 4 == 0 && offset < image_.text_bytes() &&
                               !core_.fault_pending()
                           ? &text_[offset / 4]
                           : &uncached_;
    if (slot->valid) return &slot->inst;
    const auto decoded = isa::decode(core_.fetch(pc));
    if (!decoded) return nullptr;
    slot->inst = *decoded;
    slot->valid = slot != &uncached_;
    return &slot->inst;
  }

  /// Retire `k` NOPs from byte PC `pc` on: what k exec() calls on them
  /// would do, trace entries included.
  void retire_nops(std::size_t k, std::uint32_t pc) {
    auto& st = result_.stats;
    if (config_.collect_trace)
      for (std::size_t m = 0; m < k && result_.trace.size() < config_.max_trace;
           ++m)
        result_.trace.push_back(
            {st.insts + 1 + m, pc + static_cast<std::uint32_t>(m) * 4, 0});
    st.insts += k;
    st.nops += k;
  }

  /// Execute one instruction architecturally; returns the successor's
  /// byte PC.
  std::uint32_t exec(const Instruction& in, std::uint32_t pc) {
    if (config_.collect_trace && result_.trace.size() < config_.max_trace)
      result_.trace.push_back({result_.stats.insts + 1, pc, isa::encode(in)});
    const Effect effect = core_.execute(in, pc);
    switch (effect.kind) {
      case Effect::Kind::kNext: break;
      case Effect::Kind::kTaken: return effect.target;
      case Effect::Kind::kHalt: finish(RunResult::Status::kHalted); break;
      case Effect::Kind::kExit: finish(RunResult::Status::kExited); break;
      case Effect::Kind::kFault: finish(RunResult::Status::kFault); break;
    }
    // A store into the text makes the front cache stale. The executing
    // block is a reference into it, so the cache is dropped only at the
    // next enter_block() (BlockCache::trusted). On a vanilla image the
    // store drops the word's decoded instruction.
    if (effect.stored) {
      if (blocks_) {
        blocks_->note_store(effect.store_addr);
      } else if (const std::uint32_t offset =
                     effect.store_addr - image_.text_base;
                 offset < text_.size() * 4) {
        text_[offset / 4].valid = false;
      }
    }
    return pc + 4;
  }

  const assembler::LoadImage& image_;
  const SimConfig& config_;
  RunResult result_;
  Core core_;
  /// The run's block admissions (SOFIA images only).
  std::optional<BlockCache> blocks_;
  /// A vanilla run's text words, decoded on first fetch (fetch_decoded).
  struct Predecoded {
    Instruction inst;
    bool valid = false;
  };
  std::vector<Predecoded> text_;
  Predecoded uncached_;  ///< a fetch that is not kept
  /// Source exit label of an in-flight indirect transfer (gating schemes).
  std::optional<std::uint8_t> pending_;
  bool done_ = false;
};

}  // namespace

RunResult FunctionalBackend::run(const assembler::LoadImage& image,
                                 const SimConfig& config) const {
  FunctionalMachine machine(image, config, store_);
  return machine.run();
}

}  // namespace sofia::sim
