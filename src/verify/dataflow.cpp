#include "verify/dataflow.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cfg/cfg.hpp"
#include "isa/isa.hpp"

namespace sofia::verify::dataflow {

namespace {

using State = std::array<AbsVal, isa::kNumRegs>;

/// The registers of the block the engine is running, each one a pointer to
/// its current value: the block's entry state for a register the block has
/// not written, else the result its last writer left in the memo. Nothing
/// is copied to start a block.
class Regs {
 public:
  /// Start a block from `entry`, which must outlive the run.
  void start(const State& entry) {
    for (unsigned r = 0; r < isa::kNumRegs; ++r) at_[r] = &entry[r];
  }
  const AbsVal& operator[](unsigned r) const { return *at_[r]; }
  /// Register r now holds `v`, which must outlive the run.
  void point(unsigned r, const AbsVal& v) { at_[r] = &v; }

 private:
  std::array<const AbsVal*, isa::kNumRegs> at_{};
};

/// Register masks: bit r stands for register r.
constexpr std::uint32_t kAllRegs = (1u << isa::kNumRegs) - 1;
constexpr std::uint32_t bit(unsigned r) { return 1u << r; }

/// Inner-fixpoint widening delay: joins into a block entry beyond this
/// count switch from plain join to threshold widening.
constexpr std::uint32_t kWidenAfter = 3;

/// Enumeration budgets: addresses a load may resolve through, addresses a
/// store may dirty individually (beyond it the whole data section goes
/// dirty), and values an indirect target set may enumerate to.
constexpr std::size_t kMaxLoadAddrs = 16;
constexpr std::size_t kMaxStoreAddrs = 64;

/// Outer dirty-set rounds before the sound fallback (all data dirty).
constexpr std::uint32_t kMaxRounds = 4;

std::uint8_t access_size(isa::Opcode op) {
  switch (op) {
    case isa::Opcode::kLw:
    case isa::Opcode::kSw: return 4;
    case isa::Opcode::kLh:
    case isa::Opcode::kLhu:
    case isa::Opcode::kSh: return 2;
    default: return 1;
  }
}

class Engine {
 public:
  explicit Engine(const ProgramModel& m)
      : m_(m),
        b_(m.policy.words_per_block),
        text_base_word_(m.text_base / 4),
        data_limit_(m.data_base +
                    static_cast<std::uint32_t>(m.data.size())),
        dirty_(m.data.size(), false) {
    // Decode every block once; an undecodable or missing word simply
    // havocs the state at that point (check_static attributes it).
    code_.resize(m_.blocks.size());
    memo_base_.resize(m_.blocks.size());
    std::size_t insts = 0;
    for (std::size_t i = 0; i < m_.blocks.size(); ++i) {
      memo_base_[i] = static_cast<std::uint32_t>(insts);
      insts += m_.blocks[i].inst_words.size();
      code_[i].reserve(m_.blocks[i].inst_words.size());
      for (const std::uint32_t w : m_.blocks[i].inst_words)
        code_[i].push_back(isa::decode(w));
    }
    memo_.resize(insts);
    // Widening thresholds: the section boundaries, so a widened pointer
    // still proves "below text" / "inside data" instead of jumping to top.
    const std::set<std::uint32_t> t = {
        0u, m_.text_base, m_.text_base + m_.total_words() * 4,
        m_.data_base, data_limit_, m_.stack_top};
    thresholds_.assign(t.begin(), t.end());
  }

  DataflowResult run() {
    DataflowResult result;
    if (m_.blocks.empty()) return result;
    const auto entry_block = block_at(m_.entry);
    if (!entry_block) return result;  // metadata errors flagged elsewhere

    std::uint32_t round = 0;
    for (;;) {
      ++round;
      fixpoint(*entry_block);
      auto facts = collect_facts();
      const bool grew = grow_dirty(facts.first);
      if (grew && round < kMaxRounds) continue;
      if (grew) {
        // Did not stabilize within budget: sound fallback — treat the whole
        // data section as dirty and take the resulting facts.
        dirty_all_ = true;
        ++round;
        fixpoint(*entry_block);
        facts = collect_facts();
      }
      result.rounds = round;
      result.stores = std::move(facts.first);
      result.indirects = std::move(facts.second);
      break;
    }
    result.transfers = transfers_;
    return result;
  }

 private:
  // ---- address mapping -----------------------------------------------------

  std::optional<std::uint32_t> block_at(std::uint64_t byte_addr) const {
    if (byte_addr % 4 != 0) return std::nullopt;
    const std::uint64_t word = byte_addr / 4;
    if (word < text_base_word_) return std::nullopt;
    const std::uint64_t rel = word - text_base_word_;
    const std::uint64_t blk = rel / b_;
    if (blk >= m_.blocks.size()) return std::nullopt;
    return static_cast<std::uint32_t>(blk);
  }

  // ---- load resolution -----------------------------------------------------

  /// Callers pass addresses inside the initial data section.
  bool byte_dirty(std::uint32_t addr) const {
    return dirty_all_ || dirty_[addr - m_.data_base];
  }

  std::uint32_t read_init(std::uint32_t addr, std::uint8_t size) const {
    std::uint32_t v = 0;
    for (std::uint8_t k = 0; k < size; ++k)
      v |= static_cast<std::uint32_t>(m_.data[addr - m_.data_base + k])
           << (8 * k);
    return v;
  }

  AbsVal load_value(isa::Opcode op, const AbsVal& addr) const {
    const std::uint8_t size = access_size(op);
    std::array<std::uint32_t, kMaxLoadAddrs> values{};
    std::size_t n = 0;
    bool resolved = true;
    const bool finite = addr.for_each(kMaxLoadAddrs, [&](std::uint32_t a) {
      if (!resolved) return;
      if (a % size != 0 || a < m_.data_base ||
          std::uint64_t{a} + size > data_limit_) {
        resolved = false;  // outside the initial data section
        return;
      }
      for (std::uint8_t k = 0; k < size; ++k)
        if (byte_dirty(a + k)) resolved = false;
      if (!resolved) return;
      std::uint32_t v = read_init(a, size);
      if (op == isa::Opcode::kLb)
        v = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(static_cast<std::int8_t>(v)));
      else if (op == isa::Opcode::kLh)
        v = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(static_cast<std::int16_t>(v)));
      values[n++] = v;
    });
    if (finite && resolved) return AbsVal::consts(values.data(), n);
    // Unresolvable: the zero-extending loads still have hard value bounds.
    switch (op) {
      case isa::Opcode::kLbu: return AbsVal::interval(0, 0xFF);
      case isa::Opcode::kLhu: return AbsVal::interval(0, 0xFFFF);
      default: return AbsVal::top();
    }
  }

  // ---- transfer functions --------------------------------------------------

  /// The value one instruction writes to its destination register, or
  /// nothing for an instruction without a register effect.
  std::optional<AbsVal> step(const Regs& s, const isa::Instruction& in,
                             std::uint32_t word_addr) const {
    using isa::Opcode;
    const AbsVal& a = s[in.ra];
    const AbsVal& bv = s[in.rb];
    const auto uimm = static_cast<std::uint32_t>(in.imm);
    const auto immv = [uimm] { return AbsVal::constant(uimm); };
    switch (in.op) {
      case Opcode::kAdd: return AbsVal::add(a, bv);
      case Opcode::kSub: return AbsVal::sub(a, bv);
      case Opcode::kAnd: return AbsVal::and_(a, bv);
      case Opcode::kOr: return AbsVal::or_(a, bv);
      case Opcode::kXor: return AbsVal::xor_(a, bv);
      case Opcode::kSll: return AbsVal::shl(a, bv);
      case Opcode::kSrl: return AbsVal::shr(a, bv);
      case Opcode::kMul: return AbsVal::mul(a, bv);
      case Opcode::kAddi:
        // Negative immediates are 2^32 - |imm| after the unsigned cast;
        // model them as subtraction so interval shapes survive.
        if (in.imm < 0)
          return AbsVal::sub(
              a, AbsVal::constant(static_cast<std::uint32_t>(-in.imm)));
        return AbsVal::add(a, immv());
      case Opcode::kAndi: return AbsVal::and_(a, immv());
      case Opcode::kOri: return AbsVal::or_(a, immv());
      case Opcode::kXori: return AbsVal::xor_(a, immv());
      case Opcode::kSlli: return AbsVal::shl(a, immv());
      case Opcode::kSrli: return AbsVal::shr(a, immv());
      case Opcode::kLui: return AbsVal::constant(uimm << 14);
      case Opcode::kSlt:
      case Opcode::kSltu:
      case Opcode::kSlti:
      case Opcode::kSltiu:
        return AbsVal::interval(0, 1);
      case Opcode::kLw:
      case Opcode::kLh:
      case Opcode::kLhu:
      case Opcode::kLb:
      case Opcode::kLbu:
        return load_value(in.op, AbsVal::add(a, immv()));
      case Opcode::kJal:
      case Opcode::kJalr:
        // Link register: the concrete return address.
        return AbsVal::constant(word_addr * 4 + 4);
      case Opcode::kSw:
      case Opcode::kSh:
      case Opcode::kSb:
      case Opcode::kNop:
      case Opcode::kHalt:
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu:
        return std::nullopt;  // no register effect
      default:
        return AbsVal::top();  // kSra/kSrai and anything new
    }
  }

  /// Run the whole block's instructions from its (fixed) entry state,
  /// leaving its exit state in regs_ and the registers that may differ
  /// from the last visit's exit in exit_changed_; optionally collect
  /// store/indirect facts along the way.
  ///
  /// Every instruction's result is kept in the memo. An instruction whose
  /// operands equal the last visit's (neither is in `changed`) would
  /// compute the same result again, so it reuses the memo; the first visit
  /// in a round computes everything.
  void transfer_block(std::uint32_t i, std::vector<StoreFact>* stores,
                      std::vector<IndirectFact>* indirects) {
    const ModelBlock& blk = m_.blocks[i];
    Regs& s = regs_;
    s.start(entry_[i]);
    const bool first = !visited_[i];
    visited_[i] = true;
    const std::uint32_t pending = std::exchange(entry_changed_[i], 0);
    std::uint32_t changed = first ? kAllRegs : pending;
    Slot* const slots = memo_.data() + memo_base_[i];
    const std::uint32_t header =
        b_ - static_cast<std::uint32_t>(blk.inst_words.size());
    for (std::size_t k = 0; k < code_[i].size(); ++k) {
      const std::uint32_t word_addr =
          blk.base_word + header + static_cast<std::uint32_t>(k);
      const auto& inst = code_[i][k];
      if (!inst) {
        // Undecodable word: havoc everything except the zero register
        // (the same top on every visit).
        for (unsigned r = 1; r < isa::kNumRegs; ++r) s.point(r, top_);
        changed &= bit(isa::kRegZero);
        continue;
      }
      if (stores && isa::is_store(inst->op)) {
        stores->push_back(StoreFact{
            i, word_addr, access_size(inst->op),
            AbsVal::add(s[inst->ra],
                        AbsVal::constant(
                            static_cast<std::uint32_t>(inst->imm)))});
      } else if (indirects && isa::is_indirect_jump(*inst)) {
        // The hardware clears the two low bits of the computed target.
        AbsVal target = AbsVal::add(
            s[inst->ra],
            AbsVal::constant(static_cast<std::uint32_t>(inst->imm)));
        std::array<std::uint32_t, kMaxStoreAddrs> cleared;
        std::size_t n = 0;
        if (target.for_each(kMaxStoreAddrs,
                            [&](std::uint32_t v) { cleared[n++] = v & ~3u; }))
          target = AbsVal::consts(cleared.data(), n);
        indirects->push_back(IndirectFact{i, word_addr, target});
      }
      ++transfers_;
      Slot& slot = slots[k];
      bool fresh = false;  // the result differs from the last visit's
      if (first || (changed & (bit(inst->ra) | bit(inst->rb))) != 0) {
        auto next = step(s, *inst, word_addr);
        slot.writes = next && inst->rd != isa::kRegZero;
        if (slot.writes && (first || !(*next == slot.value))) {
          slot.value = std::move(*next);
          fresh = true;
        }
      }
      if (slot.writes) {
        s.point(inst->rd, slot.value);
        changed = fresh ? changed | bit(inst->rd) : changed & ~bit(inst->rd);
      }
    }
    exit_changed_ = first ? kAllRegs : changed;
  }

  // ---- the worklist fixpoint -----------------------------------------------

  /// Join the registers in `regs` (a mask) of `incoming` into block to's
  /// entry state. The other registers hold what an earlier propagate along
  /// this edge already joined in, so they cannot change it.
  void propagate(std::uint32_t to, const Regs& incoming, std::uint32_t regs) {
    State& cur = entry_[to];
    bool changed = false;
    const bool widen = joins_[to] >= kWidenAfter;
    for (; regs != 0; regs &= regs - 1) {
      const auto r = static_cast<unsigned>(std::countr_zero(regs));
      if (incoming[r] == cur[r]) continue;
      if (widen ? AbsVal::widen_into(cur[r], incoming[r], thresholds_)
                : AbsVal::join_into(cur[r], incoming[r])) {
        entry_changed_[to] |= bit(r);
        changed = true;
      }
    }
    if (!reachable_[to]) {
      reachable_[to] = true;
      changed = true;
    }
    if (changed) {
      ++joins_[to];
      if (!queued_[to]) {
        queued_[to] = true;
        worklist_.push_back(to);
        std::push_heap(worklist_.begin(), worklist_.end(), std::greater<>());
      }
    }
  }

  void fixpoint(std::uint32_t entry_block) {
    entry_.assign(m_.blocks.size(), State{});
    reachable_.assign(m_.blocks.size(), false);
    queued_.assign(m_.blocks.size(), false);
    joins_.assign(m_.blocks.size(), 0);
    visited_.assign(m_.blocks.size(), false);
    entry_changed_.assign(m_.blocks.size(), 0);
    worklist_.clear();

    // Architectural reset state: sp holds the image's stack top, the zero
    // register is zero, everything else is unconstrained.
    State boot;
    boot.fill(AbsVal::top());
    boot[isa::kRegZero] = AbsVal::constant(0);
    boot[isa::kRegSp] = AbsVal::constant(m_.stack_top);
    regs_.start(boot);
    propagate(entry_block, regs_, kAllRegs);

    // Lowest block index first: a loop body settles before the blocks
    // after the loop are visited with its intermediate states.
    while (!worklist_.empty()) {
      std::pop_heap(worklist_.begin(), worklist_.end(), std::greater<>());
      const std::uint32_t i = worklist_.back();
      worklist_.pop_back();
      queued_[i] = false;
      const ModelBlock& blk = m_.blocks[i];
      transfer_block(i, nullptr, nullptr);
      if (code_[i].empty()) continue;
      const auto& exit_inst = code_[i].back();
      const std::int64_t exit_word = blk.base_word + b_ - 1;
      const std::int64_t fall = (blk.base_word + b_) * std::int64_t{4};
      if (!exit_inst) continue;  // undecodable exit: no known successors
      // regs_ still reads the registers the block did not write from
      // entry_[i], so an edge back to block i goes last: joining into
      // entry_[i] must not change what the other successors receive. The
      // order of the other edges does not matter, since the worklist pops
      // by block index.
      bool self_edge = false;
      const auto flow_to = [&](std::uint64_t byte_addr) {
        const auto to = block_at(byte_addr);
        if (!to) return;
        if (*to == i)
          self_edge = true;
        else
          propagate(*to, regs_, exit_changed_);
      };
      const isa::Instruction& in = *exit_inst;
      if (isa::is_cond_branch(in.op)) {
        flow_to((exit_word + in.imm) * 4);
        flow_to(fall);
      } else if (in.op == isa::Opcode::kJal) {
        flow_to((exit_word + in.imm) * 4);
      } else if (in.op == isa::Opcode::kJalr) {
        for (const std::uint32_t target :
             isa::is_ret(in) ? blk.ret_targets : blk.jalr_targets)
          flow_to(target);
      } else if (in.op != isa::Opcode::kHalt) {
        flow_to(fall);
      }
      if (self_edge) propagate(i, regs_, exit_changed_);
    }
  }

  /// Replay every reachable block against its fixed entry state, collecting
  /// facts in deterministic (block, word) order.
  std::pair<std::vector<StoreFact>, std::vector<IndirectFact>>
  collect_facts() {
    std::vector<StoreFact> stores;
    std::vector<IndirectFact> indirects;
    for (std::uint32_t i = 0; i < m_.blocks.size(); ++i)
      if (reachable_[i]) transfer_block(i, &stores, &indirects);
    return {std::move(stores), std::move(indirects)};
  }

  /// Grow the dirty byte set from this round's store facts; returns true
  /// when the set grew (another round is needed).
  bool grow_dirty(const std::vector<StoreFact>& stores) {
    if (dirty_all_ || m_.data.empty()) return false;
    bool grew = false;
    for (const StoreFact& st : stores) {
      if (st.addr.proven_outside(m_.data_base, data_limit_)) continue;
      const bool bounded =
          st.addr.for_each(kMaxStoreAddrs, [&](std::uint32_t a) {
            for (std::uint8_t k = 0; k < st.size; ++k) {
              const std::uint32_t byte = a + k;
              if (byte >= m_.data_base && byte < data_limit_ &&
                  !dirty_[byte - m_.data_base]) {
                dirty_[byte - m_.data_base] = true;
                grew = true;
              }
            }
          });
      if (!bounded) {
        // Unbounded store overlapping data: everything is dirty.
        dirty_all_ = true;
        return true;
      }
    }
    return grew;
  }

  const ProgramModel& m_;
  const std::uint32_t b_;
  const std::uint32_t text_base_word_;
  const std::uint32_t data_limit_;
  std::vector<std::vector<std::optional<isa::Instruction>>> code_;
  std::vector<std::uint32_t> thresholds_;

  std::vector<State> entry_;
  std::vector<bool> reachable_;
  std::vector<bool> queued_;
  std::vector<std::uint32_t> joins_;
  std::vector<std::uint32_t> worklist_;  ///< min-heap of block indices
  Regs regs_;  ///< the running block's registers
  std::uint32_t exit_changed_ = 0;  ///< see transfer_block

  /// One instruction's last result, kept across visits within a round.
  struct Slot {
    AbsVal value;
    bool writes = false;  ///< it writes a register other than zero
  };
  std::vector<Slot> memo_;                ///< per instruction, by block
  std::vector<std::uint32_t> memo_base_;  ///< block -> its first slot
  std::vector<bool> visited_;             ///< run this round
  /// Per block: entry registers changed since the block last ran.
  std::vector<std::uint32_t> entry_changed_;
  const AbsVal top_ = AbsVal::top();

  std::vector<bool> dirty_;  ///< per initial-data byte: may be stored to
  bool dirty_all_ = false;
  std::uint64_t transfers_ = 0;
};

}  // namespace

DataflowResult analyze(const ProgramModel& m) { return Engine(m).run(); }

}  // namespace sofia::verify::dataflow
