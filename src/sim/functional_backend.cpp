#include "sim/functional_backend.hpp"

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
        core_(image, config.fault, result_),
        fault_armed_(core_.fault_pending()) {
    if (image.sofia) blocks_.emplace(&store, image, config);
  }

  RunResult run() {
    if (image_.sofia)
      run_sofia();
    else
      run_vanilla();
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
  /// cache when its words cannot have changed.
  const Admission& enter_block(std::uint32_t target_word,
                               std::uint32_t prev_word) {
    // The front cache goes stale when a store hits the text (see exec) or
    // an armed fault fires (a block opened before may hold the faulted
    // word). It is dropped here, between blocks — never while run_sofia()
    // still executes out of a reference into it.
    if (text_dirty_ || (fault_armed_ && !core_.fault_pending())) {
      blocks_->clear();
      text_dirty_ = false;
      fault_armed_ = core_.fault_pending();
    }
    // While the fault is armed every entry refetches, or the fetch counter
    // would never reach the injection index.
    if (!fault_armed_)
      if (const OpenedBlock* rec = blocks_->cached(target_word, prev_word))
        return rec->adm;
    auto& st = result_.stats;
    ++st.blocks_fetched;
    const OpenedBlock& rec = blocks_->admit(
        target_word, prev_word,
        [&](std::uint32_t base_word, const scheme::EntryPath& path)
            -> const std::vector<std::uint32_t>& {
          raw_.assign(config_.policy.words_per_block, 0);
          for (const std::uint32_t j : path.sched)
            raw_[j] = core_.fetch((base_word + j) * 4);
          st.fetch_words += path.sched.size();
          return raw_;
        });
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
      std::uint32_t next = 0;
      for (std::size_t i = 0; i < blk.insts.size() && !done_; ++i) {
        if (!budget_ok()) return;
        next = exec(blk.insts[i], (blk.base_word + blk.first_inst +
                                   static_cast<std::uint32_t>(i)) * 4);
      }
      if (done_) return;
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
    std::uint32_t pc = image_.entry;
    while (!done_) {
      if (!budget_ok()) return;
      const auto decoded = isa::decode(core_.fetch(pc));
      if (!decoded) {
        reset(ResetCause::kIllegalInstruction, pc);
        return;
      }
      ++result_.stats.fetch_words;
      pc = exec(*decoded, pc);
    }
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
    // A store into the text section makes the front cache stale; the cycle
    // machine refetches live and would see (and reset on) the modified
    // ciphertext. Only mark it dirty here — the executing block is a
    // reference into it, so the actual clear waits until the next
    // enter_block().
    if (effect.stored && image_.sofia &&
        effect.store_addr + 4 > image_.text_base &&
        effect.store_addr < image_.text_base + image_.text_bytes())
      text_dirty_ = true;
    return pc + 4;
  }

  const assembler::LoadImage& image_;
  const SimConfig& config_;
  RunResult result_;
  Core core_;
  /// The run's block admissions (SOFIA images only).
  std::optional<BlockCache> blocks_;
  std::vector<std::uint32_t> raw_;  ///< one entry's fetched words
  /// Source exit label of an in-flight indirect transfer (gating schemes).
  std::optional<std::uint8_t> pending_;
  bool fault_armed_;         ///< the configured fault has yet to fire
  bool text_dirty_ = false;  ///< store hit text; clear blocks_ between blocks
  bool done_ = false;
};

}  // namespace

RunResult FunctionalBackend::run(const assembler::LoadImage& image,
                                 const SimConfig& config) const {
  FunctionalMachine machine(image, config, store_);
  return machine.run();
}

}  // namespace sofia::sim
