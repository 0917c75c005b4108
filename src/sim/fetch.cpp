#include "sim/fetch.hpp"

#include <algorithm>
#include <utility>

namespace sofia::sim {

// ---------------------------------------------------------------------------
// VanillaFetch
// ---------------------------------------------------------------------------

VanillaFetch::VanillaFetch(Core& core, ICache& icache, std::uint32_t start_pc)
    : core_(core), icache_(icache), pc_(start_pc) {}

std::optional<FetchedInst> VanillaFetch::step(std::uint64_t cycle, bool queue_full) {
  if (waiting_ || reset_) return std::nullopt;
  if (!fetching_) {
    if (cycle < ready_at_) return std::nullopt;  // redirect not effective yet
    fetching_ = true;
    ready_at_ = cycle + icache_.access(pc_) - 1;
  }
  if (cycle < ready_at_ || queue_full) return std::nullopt;
  const auto decoded = isa::decode(core_.fetch(pc_));
  if (!decoded) {
    reset_ = ResetEvent{ResetCause::kIllegalInstruction, cycle, pc_};
    return std::nullopt;
  }
  FetchedInst fi;
  fi.inst = *decoded;
  fi.pc = pc_;
  fi.ready = cycle + 1;
  fetching_ = false;
  ++words_delivered;
  if (decoded->op == isa::Opcode::kJal) {
    // Direct jumps are followed at decode time (LEON3 resolves them early).
    fi.fetch_redirected = true;
    pc_ += static_cast<std::uint32_t>(decoded->imm * 4);
  } else if (decoded->op == isa::Opcode::kJalr || decoded->op == isa::Opcode::kHalt) {
    // Indirect target / end of program: wait for the execute side.
    waiting_ = true;
  } else {
    // Plain instructions and conditional branches: continue sequentially
    // (static not-taken speculation; a taken branch squashes via redirect).
    pc_ += 4;
  }
  return fi;
}

void VanillaFetch::redirect(std::uint32_t target, std::uint32_t /*from_pc*/,
                            std::uint64_t cycle, bool /*indirect*/) {
  pc_ = target;
  waiting_ = false;
  fetching_ = false;
  ready_at_ = cycle;
}

// ---------------------------------------------------------------------------
// SofiaFetch
// ---------------------------------------------------------------------------

SofiaFetch::SofiaFetch(Core& core, ICache& icache, CipherEngine& engine,
                       const SimConfig& config, const assembler::LoadImage& image,
                       BlockStore* store)
    : core_(core),
      icache_(icache),
      engine_(engine),
      config_(config),
      blocks_(store, image, config) {
  process_block(image.entry / 4, image.entry_prev, 0);
}

void SofiaFetch::redirect(std::uint32_t target, std::uint32_t from_pc,
                          std::uint64_t cycle, bool indirect) {
  staged_.clear();
  waiting_ = false;
  // The squashed block's queued cipher work is dropped; an in-flight
  // iterative op keeps the engine busy until it drains (see
  // CipherEngine::flush).
  engine_.flush(cycle);
  if (indirect) {
    // Under a gating scheme the source block's exit was opened with a
    // gate flag and exit label; the transfer then presents the canonical
    // indirect sentinel and must pass the target-set check. Under any
    // other scheme the dynamic prevPC simply garbles the target block
    // (an indirect jump the toolchain did not devirtualize).
    const auto it = exit_info_.find(from_pc / 4);
    if (it != exit_info_.end() && it->second.gated) {
      pending_entry_check_ = it->second.exit_label;
      process_block(target / 4, assembler::kIndirectPrevWord, cycle);
      return;
    }
  }
  process_block(target / 4, from_pc / 4, cycle);
}

std::optional<FetchedInst> SofiaFetch::step(std::uint64_t cycle, bool queue_full) {
  if (!queue_full && !staged_.empty() && staged_.front().ready <= cycle + 1) {
    // One IF->ID handoff per cycle, paced by the decrypt timestamps.
    FetchedInst fi = staged_.front();
    staged_.pop_front();
    ++words_delivered;
    return fi;
  }
  // Run ahead into the next block once the current one has drained enough:
  // a small stage buffer keeps at most ~2 blocks in flight, like a fetch
  // queue would.
  if (!waiting_ && !reset_ && staged_.size() <= 2 && cycle >= cont_cycle_)
    process_block(next_block_word_, cont_prev_word_, cont_cycle_);
  return std::nullopt;
}

void SofiaFetch::process_block(std::uint32_t target_word, std::uint32_t prev_word,
                               std::uint64_t entry_cycle) {
  const std::optional<std::uint8_t> pending =
      std::exchange(pending_entry_check_, std::nullopt);
  if (reset_) return;
  const std::uint32_t b = config_.policy.words_per_block;
  ++blocks;

  const Admission& adm = admit_timed(target_word, prev_word, entry_cycle);
  const std::uint32_t base_word = adm.base_word;
  const Admission::Violation v = adm.check(pending);
  if (v.fired() && !v.at_word()) {
    // An invalid entry resets at once; a failed verification or gate check
    // when the comparison completes. Nothing from this block may commit
    // (the store gate would have held its stores back in the real
    // pipeline).
    const std::uint64_t at = v.rule == Admission::Rule::kInvalidEntry
                                 ? entry_cycle
                                 : timing_.verify_cycle;
    reset_ = ResetEvent{v.cause, at, adm.reset_pc(v)};
    return;
  }
  exit_info_[base_word + b - 1] = ExitInfo{adm.gate_indirect, adm.exit_label};
  // Stage the decoded slots; those ahead of a word rule still issue, and
  // the reset fires once the offending word decodes.
  for (std::uint32_t i = 0; i < adm.insts.size(); ++i) {
    const std::uint32_t w = adm.first_inst + i;
    FetchedInst fi;
    fi.inst = adm.insts[i];
    fi.pc = (base_word + w) * 4;
    fi.ready = timing_.decrypt_done[w] + 1;
    fi.store_gate = timing_.store_gate;
    staged_.push_back(fi);
  }
  if (v.fired()) {
    reset_ = ResetEvent{v.cause, timing_.decrypt_done[v.word] + 1,
                        adm.reset_pc(v)};
    return;
  }

  // ---- decide how fetch continues past this block ----
  // Fall-through speculation is always sound: the sequential successor is
  // encrypted with prevPC = this block's exit word whether the exit is a
  // plain instruction or a not-taken conditional branch. Direct jumps are
  // followed at decode time (the target and the prevPC are both known).
  // Only indirect exits (jalr/ret) and halt make fetch wait.
  const isa::Opcode exit_op = staged_.back().inst.op;
  const std::uint64_t exit_decoded = timing_.decrypt_done[b - 1] + 1;
  if (exit_op == isa::Opcode::kJal) {
    staged_.back().fetch_redirected = true;
    const std::uint32_t target =
        (base_word + b - 1) + static_cast<std::uint32_t>(staged_.back().inst.imm);
    next_block_word_ = target;
    cont_prev_word_ = base_word + b - 1;
    cont_cycle_ = std::max(timing_.fetch_cursor, exit_decoded);
  } else if (exit_op == isa::Opcode::kJalr || exit_op == isa::Opcode::kHalt) {
    waiting_ = true;
  } else {
    next_block_word_ = base_word + b;
    cont_prev_word_ = base_word + b - 1;
    cont_cycle_ = timing_.fetch_cursor;
  }
}

const Admission& SofiaFetch::admit_timed(std::uint32_t target_word,
                                         std::uint32_t prev_word,
                                         std::uint64_t entry_cycle) {
  const scheme::EntryPath* entered = nullptr;  // null for an invalid entry
  const OpenedBlock& rec = blocks_.admit(
      target_word, prev_word,
      [&](std::uint32_t base_word, const scheme::EntryPath& path)
          -> const std::vector<std::uint32_t>& {
        fetch_timed(base_word, path, entry_cycle);
        entered = &path;
        return raw_;
      });
  if (entered) replay_timed(rec.dev, *entered, entry_cycle);
  return rec.adm;
}

void SofiaFetch::fetch_timed(std::uint32_t base_word,
                             const scheme::EntryPath& path,
                             std::uint64_t entry_cycle) {
  // The SOFIA datapath reads fetch_words_per_cycle words per cycle (the
  // 64-bit cipher block suggests 2); misses stall for the refill.
  const std::uint32_t b = config_.policy.words_per_block;
  const std::uint32_t per_cycle = std::max(1u, config_.fetch_words_per_cycle);
  std::uint64_t cursor = entry_cycle;
  fetch_done_.assign(b, 0);
  raw_.assign(b, 0);
  std::uint32_t in_cycle = 0;
  for (const std::uint32_t j : path.sched) {
    const std::uint32_t addr = (base_word + j) * 4;
    const std::uint32_t delay = icache_.access(addr);
    if (delay > 1) {
      cursor += delay;
      in_cycle = 1;
    } else if (in_cycle == 0 || in_cycle >= per_cycle) {
      cursor += 1;
      in_cycle = 1;
    } else {
      ++in_cycle;
    }
    fetch_done_[j] = cursor;
    raw_[j] = core_.fetch(addr);
  }
  timing_.fetch_cursor = cursor;
}

void SofiaFetch::replay_timed(const scheme::DeviceBlock& dev,
                              const scheme::EntryPath& path,
                              std::uint64_t entry_cycle) {
  const std::uint32_t b = config_.policy.words_per_block;

  // ---- replay the decrypt ops on the shared engine ----
  // Eager-issue schemes (address-only counters) start every op at block
  // entry; a serial chain additionally waits for the previous op and for
  // the span's fetched ciphertext.
  ks_done_.assign(b, 0);
  std::uint64_t prev_op_done = 0;
  for (const auto& op : dev.decrypt_ops) {
    std::uint64_t issue = entry_cycle;
    if (dev.serial_decrypt) {
      issue = std::max(issue, prev_op_done);
      for (std::uint32_t k = 0; k < op.count; ++k)
        issue = std::max(issue, fetch_done_[op.first + k]);
    }
    prev_op_done = engine_.schedule(CipherEngine::Op::kCtr, issue);
    ++ctr_ops;
    for (std::uint32_t k = 0; k < op.count; ++k)
      ks_done_[op.first + k] = prev_op_done;
  }

  std::vector<std::uint64_t>& decrypt_done = timing_.decrypt_done;
  decrypt_done.assign(b, 0);
  for (const std::uint32_t j : path.sched)
    decrypt_done[j] = std::max(fetch_done_[j], ks_done_[j]);

  mac_words_seen += dev.header_words;

  // ---- replay the verify chain ----
  std::uint64_t chain_ready = 0;
  for (const auto& op : dev.verify_ops) {
    std::uint64_t in_ready = chain_ready;
    for (std::uint32_t k = 0; k < op.count; ++k)
      in_ready = std::max(in_ready, decrypt_done[op.first + k]);
    chain_ready = engine_.schedule(CipherEngine::Op::kCbc, in_ready);
    ++cbc_ops;
  }
  for (const std::uint32_t w : dev.verify_extra_words)
    chain_ready = std::max(chain_ready, decrypt_done[w]);
  timing_.verify_cycle = chain_ready + 1;
  if (dev.performs_verify) ++verifications;
  // An unauthenticated scheme never gates stores (there is no
  // verification to wait for).
  timing_.store_gate =
      dev.performs_verify && timing_.verify_cycle > config_.store_gate_headstart
          ? timing_.verify_cycle - config_.store_gate_headstart
          : 0;
}

}  // namespace sofia::sim
