#include "sim/machine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "isa/disasm.hpp"
#include "sim/cipher_engine.hpp"
#include "sim/core.hpp"
#include "sim/fetch.hpp"
#include "sim/icache.hpp"
#include "support/error.hpp"
#include "support/hex.hpp"

namespace sofia::sim {

std::string_view to_string(ResetCause cause) {
  switch (cause) {
    case ResetCause::kNone: return "none";
    case ResetCause::kMacMismatch: return "mac-mismatch";
    case ResetCause::kInvalidEntry: return "invalid-entry";
    case ResetCause::kRestrictedStore: return "restricted-store";
    case ResetCause::kIllegalExit: return "illegal-exit";
    case ResetCause::kIllegalInstruction: return "illegal-instruction";
    case ResetCause::kStateCorruption: return "state-corruption";
    case ResetCause::kTargetSetViolation: return "target-set-violation";
  }
  return "?";
}

std::string format_trace(const std::vector<TraceEntry>& trace) {
  std::string out;
  for (const TraceEntry& e : trace) {
    out += std::to_string(e.cycle);
    out += "\t";
    out += hex32_0x(e.pc);
    out += "\t";
    out += isa::disassemble_word(e.word, e.pc);
    out += "\n";
  }
  return out;
}

std::string_view to_string(RunResult::Status status) {
  switch (status) {
    case RunResult::Status::kHalted: return "halted";
    case RunResult::Status::kExited: return "exited";
    case RunResult::Status::kReset: return "reset";
    case RunResult::Status::kFault: return "fault";
    case RunResult::Status::kMaxCycles: return "max-cycles";
  }
  return "?";
}

namespace {

using isa::Instruction;
using isa::Opcode;

// ---- the segment memo -------------------------------------------------------
//
// A SOFIA cycle run spends its time re-entering the same blocks in the same
// timing state. So each run keeps a bounded memo of *segments*: a segment
// runs from one block entry (SofiaFetch::enter_due) to the next. A node is
// the machine's state at an entry, relative to the machine cycle C at which
// the entry is made, and compared word by word (never by hash alone):
//
//   * where the machine stands: after the execute step of cycle C (a taken
//     transfer redirected fetch) or after its fetch step (fetch ran ahead);
//   * the entry (entry word, prevPC) and the pending gate label;
//   * the entry cycle E as a signed offset from C + 1, E's parity (an
//     alternating engine only) and the engine's free slots relative to E,
//     clamped at 0: every later op starts at or after E;
//   * busy_until_ and every reg_ready_, and the ready and store-gate times
//     of every queued and staged instruction (the instructions themselves
//     too), relative to C + 1 and clamped at 0: no later cycle is earlier.
//
// A node's entry is recorded only with every I-cache line of its path
// resident (an I-cache hit changes nothing but a counter) and when its
// admission fires no rule. Its instructions are then known: the queued and
// staged ones, then the block's. The segment's timing is a function of the
// node and of the control effect of each instruction it issues. So a node
// keeps one edge per outcome seen so far — how many instructions issued,
// how the last one ended the segment (the next entry came due, a redirect
// to a target, halt, exit or fault), what it added to every timing and
// front-end counter, and the next node.
//
// A replay follows edges without building a key or stepping a cycle: it
// runs each instruction through Core::execute for its architecture only
// (a run of padding NOPs in one step), re-checks the path's residency, adds
// the edge's counters and moves on. When an effect matches no edge, the
// path is not resident, a text store hits fetched words, or an edge could
// reach max_cycles, the machine rebuilds the absolute state from the node
// and steps that segment cycle by cycle, feeding the execute step the
// effects the replay already computed; the new edge is linked in.
//
// Everything else takes the per-cycle loop, the reference path: traced
// runs, the iterative engine (its op history is state), a configured fetch
// fault, the rest of a run after a store into fetched text, a pending
// reset, and the first visit of an entry, so a run that never re-enters a
// block builds no key.

/// Where the machine stands when a block entry comes due in cycle C.
enum class Origin : std::uint8_t {
  kRedirect,  ///< after the execute step: the fetch step of C follows
  kStep,      ///< after the fetch step: cycle C is over
};

/// The counters a segment moves besides the architectural ones.
struct Tally {
  std::uint64_t cycle = 0;
  std::uint64_t exec_stall = 0;
  std::uint64_t queue_empty = 0;
  std::uint64_t gate_stalls = 0;
  std::uint64_t icache_hits = 0;
  FetchCounters fetch;

  friend bool operator==(const Tally&, const Tally&) = default;
  Tally operator-(const Tally& o) const {
    return {cycle - o.cycle,
            exec_stall - o.exec_stall,
            queue_empty - o.queue_empty,
            gate_stalls - o.gate_stalls,
            icache_hits - o.icache_hits,
            {fetch.words_delivered - o.fetch.words_delivered,
             fetch.mac_words_seen - o.fetch.mac_words_seen,
             fetch.ctr_ops - o.fetch.ctr_ops, fetch.cbc_ops - o.fetch.cbc_ops,
             fetch.blocks - o.fetch.blocks,
             fetch.verifications - o.fetch.verifications}};
  }
};

/// How a segment ended.
enum class End : std::uint8_t { kEntry, kRedirect, kHalt, kExit, kFault };

struct Node;

/// One outcome of a node's segment: its first `issued` instructions issued,
/// all but the last continuing in sequence, and the last ended it so.
struct Edge {
  std::uint32_t issued = 0;
  End end = End::kEntry;
  std::uint32_t target = 0;  ///< kRedirect: the byte address fetch went to
  /// What the segment added; a terminal edge's cycle is where the run
  /// finished, relative to the node's cycle.
  Tally delta;
  Node* next = nullptr;  ///< the node of the next entry (null: none kept)
};

struct Node {
  std::vector<std::uint64_t> key;  ///< see Machine::build_key
  Origin origin = Origin::kStep;
  Node* chain = nullptr;  ///< the next node whose key hashes the same
  bool fires = false;     ///< the entry's admission fires a rule
  // Set when the segment is first recorded:
  std::uint32_t base_word = 0;  ///< the entered block and its fetch path
  std::span<const std::uint32_t> sched;
  std::vector<FetchedInst> program;  ///< queued ++ staged after the entry
  std::vector<Edge> edges;
  /// Instructions issued up to the kEntry edge (kNoEntry: none seen), the
  /// most any edge issued, and the longest edge in cycles.
  static constexpr std::uint32_t kNoEntry = ~0u;
  std::uint32_t entry_issued = kNoEntry;
  std::size_t entry_edge = 0;
  std::uint32_t max_issued = 0;
  std::uint64_t max_span = 0;

  /// The edge that ends after `issued` instructions with `effect`, which
  /// does not continue in sequence.
  const Edge* find(std::uint32_t issued, const Effect& effect) const {
    const End end = effect.kind == Effect::Kind::kTaken  ? End::kRedirect
                    : effect.kind == Effect::Kind::kHalt ? End::kHalt
                    : effect.kind == Effect::Kind::kExit ? End::kExit
                                                         : End::kFault;
    const std::uint32_t target = end == End::kRedirect ? effect.target : 0;
    for (const Edge& e : edges)
      if (e.issued == issued && e.end == end && e.target == target) return &e;
    return nullptr;
  }

  /// Link `edge` in, unless an edge with the same outcome is there.
  void add(const Edge& edge) {
    for (Edge& e : edges)
      if (e.issued == edge.issued && e.end == edge.end &&
          e.target == edge.target) {
        assert(e.delta == edge.delta);  // one outcome, one timing
        if (!e.next) e.next = edge.next;
        return;
      }
    if (edge.end == End::kEntry) {
      assert(entry_issued == kNoEntry);  // continuing, a segment is fixed
      entry_issued = edge.issued;
      entry_edge = edges.size();
    }
    max_issued = std::max(max_issued, edge.issued);
    max_span = std::max(max_span, edge.delta.cycle);
    edges.push_back(edge);
  }
};

/// A run's nodes, by key. The node count is capped, so a run that keeps
/// meeting new states stops adding them and steps.
class SegmentMemo {
 public:
  /// The node of `key`, added when new (null once the memo is full).
  Node* find_or_add(const std::vector<std::uint64_t>& key, Origin origin) {
    std::uint64_t h = 0;
    for (const std::uint64_t w : key) h = (h ^ w) * 0x9E3779B97F4A7C15ull;
    Node*& head = index_[h ^ (h >> 31)];
    for (Node* n = head; n; n = n->chain)
      if (n->key == key) return n;
    if (nodes_.size() >= kMaxNodes) return nullptr;
    Node& n = *nodes_.emplace_back(std::make_unique<Node>());
    n.key = key;
    n.origin = origin;
    n.chain = head;
    head = &n;
    return &n;
  }

 private:
  /// A full-size scheme-matrix run keeps at most 39 nodes.
  static constexpr std::size_t kMaxNodes = 1024;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<std::uint64_t, Node*> index_;
};

/// The cycle machine over one front end (VanillaFetch or SofiaFetch).
template <typename Fetch>
class Machine {
  static constexpr bool kSofia = std::is_same_v<Fetch, SofiaFetch>;

 public:
  Machine(const assembler::LoadImage& image, const SimConfig& config,
          BlockStore* store)
      : config_(config),
        core_(image, config.fault, result_),
        icache_(config.icache),
        engine_(config.cipher),
        fetch_(make_fetch(image, store)),
        queue_(config.fetch_queue),
        memo_on_(kSofia && !config.collect_trace && config.cipher.pipelined &&
                 !config.fault.enabled) {
    if (memo_on_)
      effects_.resize(config.fetch_queue + 2 + config.policy.words_per_block);
  }

  RunResult run() {
    while (!done_) {
      if (const auto& reset = fetch_.reset(); reset && cycle_ >= reset->cycle) {
        finish(RunResult::Status::kReset, reset->cycle);
        result_.reset = *reset;
        break;
      }
      exec_step();
      if (done_) break;
      // A block entry that comes due is made before the machine goes on
      // from where it stands; a replay may leave it elsewhere.
      bool fetch = !due() || enter(Origin::kRedirect) == Origin::kRedirect;
      while (fetch && !done_) {
        if (auto fi = fetch_.step(cycle_, queue_.size() >= config_.fetch_queue))
          queue_.push_back(*fi);
        fetch = due() && enter(Origin::kStep) == Origin::kRedirect;
      }
      if (done_) break;
      ++cycle_;
      if (cycle_ >= config_.max_cycles) {
        finish(RunResult::Status::kMaxCycles, cycle_);
        break;
      }
    }
    collect_stats();
    return std::move(result_);
  }

 private:
  Fetch make_fetch(const assembler::LoadImage& image, BlockStore* store) {
    if constexpr (kSofia)
      return SofiaFetch(core_, icache_, engine_, config_, image, store);
    else
      return VanillaFetch(core_, icache_, image.entry);
  }

  void finish(RunResult::Status status, std::uint64_t at_cycle) {
    result_.status = status;
    result_.stats.cycles = at_cycle;
    done_ = true;
    if (Node* n = std::exchange(recording_, nullptr)) {  // SOFIA only
      End end;
      switch (status) {
        case RunResult::Status::kHalted: end = End::kHalt; break;
        case RunResult::Status::kExited: end = End::kExit; break;
        case RunResult::Status::kFault: end = End::kFault; break;
        default: return;  // cut by the budget: nothing to keep
      }
      Edge edge{recorded_issues(), end, 0, tally() - rec_start_, nullptr};
      edge.delta.cycle = at_cycle - rec_start_.cycle;
      n->add(edge);
    }
  }

  std::uint64_t reg_ready(unsigned r) const {
    return r == isa::kRegZero ? 0 : reg_ready_[r];
  }

  void exec_step() {
    if (cycle_ < busy_until_) {
      ++result_.stats.exec_stall_cycles;
      return;
    }
    if (queue_.empty() || queue_.front().ready > cycle_) {
      ++result_.stats.queue_empty_cycles;
      return;
    }
    const FetchedInst fi = queue_.front();
    queue_.pop_front();
    execute(fi);
  }

  void execute(const FetchedInst& fi) {
    const Instruction& in = fi.inst;
    auto& st = result_.stats;
    if (config_.collect_trace && result_.trace.size() < config_.max_trace)
      result_.trace.push_back({cycle_, fi.pc, isa::encode(in)});
    // Operand availability (forwarding modeled by reg_ready timestamps).
    std::uint64_t start = cycle_;
    switch (in.op) {
      case Opcode::kNop:
      case Opcode::kHalt:
      case Opcode::kLui:
        break;
      case Opcode::kJal:
        break;
      default:
        start = std::max(start, reg_ready(in.ra));
        if ((in.op >= Opcode::kAdd && in.op <= Opcode::kMul) ||
            isa::is_cond_branch(in.op))
          start = std::max(start, reg_ready(in.rb));
        if (isa::is_store(in.op)) start = std::max(start, reg_ready(in.rd));
        break;
    }
    if (isa::is_store(in.op) && fi.store_gate > start) {
      st.store_gate_stalls += fi.store_gate - start;
      start = fi.store_gate;
    }
    st.exec_stall_cycles += start - cycle_;

    Effect effect;
    if constexpr (kSofia) {
      // A replay that fell back already ran the first instructions.
      effect = replayed_ < replayed_end_ ? effects_[replayed_++]
                                         : core_.execute(in, fi.pc);
      ++issued_;
      last_effect_ = effect;
      if (effect.stored && fetch_.note_store(effect.store_addr)) stop_memo();
    } else {
      effect = core_.execute(in, fi.pc);
    }
    switch (effect.kind) {
      case Effect::Kind::kNext:
      case Effect::Kind::kTaken:
        break;
      case Effect::Kind::kHalt:
        finish(RunResult::Status::kHalted, start + 1);
        return;
      case Effect::Kind::kExit:
        finish(RunResult::Status::kExited, start + 1);
        return;
      case Effect::Kind::kFault:
        finish(RunResult::Status::kFault, start);
        return;
    }
    const std::uint64_t duration =
        in.op == Opcode::kMul ? config_.mul_latency : 1;
    if (isa::writes_rd(in.op))
      reg_ready_[in.rd] =
          start + (isa::is_load(in.op) ? config_.load_latency : duration);
    busy_until_ = start + duration;
    // Squash the fall-through speculation, unless fetch already followed
    // this direct jump at decode time. Nothing above reads fetch state, so
    // redirecting last changes no timing.
    if (effect.kind == Effect::Kind::kTaken && !fi.fetch_redirected) {
      queue_.clear();
      fetch_.redirect(effect.target, fi, start + config_.redirect_bubble);
    }
  }

  void collect_stats() {
    auto& st = result_.stats;
    st.icache_hits = icache_.hits() + replayed_hits_;
    st.icache_misses = icache_.misses();
    st.fetch_words = fetch_.words_delivered;
    st.mac_words = fetch_.mac_words_seen;
    st.ctr_ops = fetch_.ctr_ops;
    st.cbc_ops = fetch_.cbc_ops;
    st.blocks_fetched = fetch_.blocks;
    st.mac_verifications = fetch_.verifications;
  }

  // ---- block entries and the segment memo (SOFIA only) ----------------------

  bool due() const {
    if constexpr (kSofia)
      return fetch_.due();
    else
      return false;
  }

  /// Make the due block entry, standing at `origin`, after replaying what
  /// the memo knows from it. Returns where the machine stands once the
  /// entry it made is made (a replay ends at another entry).
  Origin enter(Origin origin) {
    if constexpr (kSofia) {
      Node* node = memo_on_ ? memo_node(origin) : nullptr;
      if (node && !node->edges.empty() && !node->fires) {
        node = replay(node);
        if (!node) return origin;  // the run finished
        origin = node->origin;
      }
      // The node's segment is recorded when its entry path is resident.
      const std::uint32_t target = fetch_.continuation().target_word;
      const scheme::EntryPath* path =
          node && memo_on_ && !node->fires ? fetch_.path_of(target) : nullptr;
      const std::uint32_t base = path ? target - path->offset : 0;
      if (path && !icache_.resident(base, path->sched)) path = nullptr;
      const Tally start = path ? tally() : Tally{};
      fetch_.enter_due();
      if (node && fetch_.reset()) {
        node->fires = true;
      } else if (path) {
        if (node->program.empty()) {
          node->base_word = base;
          node->sched = path->sched;
          for (std::size_t i = 0; i < queue_.size(); ++i)
            node->program.push_back(queue_[i]);
          for (std::size_t i = 0; i < fetch_.staged().size(); ++i)
            node->program.push_back(fetch_.staged()[i]);
        }
        recording_ = node;
        rec_start_ = start;
        rec_issued_ = issued_;
      }
    }
    return origin;
  }

  /// The node of the due entry, linking it after the recorded segment that
  /// ended here; null when the entry is a first visit (and nothing was
  /// recorded) or its state cannot be kept.
  Node* memo_node(Origin origin) {
    Node* prev = std::exchange(recording_, nullptr);
    Node* node = nullptr;
    if (!fetch_.reset() && (prev || fetch_.entry_known())) {
      build_key(origin);
      node = memo_.find_or_add(key_, origin);
    }
    if (prev) {
      const bool redirect = origin == Origin::kRedirect;
      prev->add({recorded_issues(), redirect ? End::kRedirect : End::kEntry,
                 redirect ? last_effect_.target : 0, tally() - rec_start_,
                 node});
    }
    return node;
  }

  /// Follow the memo from `n`, the node of the entry the machine stands
  /// at. Returns the node whose entry stepping resumes at, with the state
  /// rebuilt there, or null once the run finished.
  Node* replay(Node* n) {
    auto& st = result_.stats;
    bool moved = false;  // the machine's own state is n's until it moves
    for (;;) {
      if (cycle_ + n->max_span >= config_.max_cycles ||
          !icache_.resident(n->base_word, n->sched))
        return moved ? rebuild(n, 0) : n;
      moved = true;
      std::uint32_t k = 0;
      const Edge* e = nullptr;
      while (!e) {
        if (k == n->entry_issued) {
          e = &n->edges[n->entry_edge];
          break;
        }
        if (k >= n->max_issued) return rebuild(n, k);
        const FetchedInst& fi = n->program[k];
        if (fi.inst.op == Opcode::kNop) {
          // A run of padding NOPs retires in one step.
          const std::uint32_t limit = std::min(n->entry_issued, n->max_issued);
          std::uint32_t m = k + 1;
          while (m < limit && n->program[m].inst.op == Opcode::kNop) ++m;
          std::fill(effects_.begin() + k, effects_.begin() + m, Effect{});
          st.insts += m - k;
          st.nops += m - k;
          k = m;
          continue;
        }
        const Effect effect = core_.execute(fi.inst, fi.pc);
        effects_[k++] = effect;
        if (effect.stored && fetch_.note_store(effect.store_addr)) {
          stop_memo();
          return rebuild(n, k);
        }
        if (effect.kind == Effect::Kind::kNext ||
            (effect.kind == Effect::Kind::kTaken && fi.fetch_redirected))
          continue;
        e = n->find(k, effect);
        if (!e) return rebuild(n, k);
      }
      if (e->end != End::kEntry && e->end != End::kRedirect) {
        add(e->delta);
        finish(e->end == End::kHalt   ? RunResult::Status::kHalted
               : e->end == End::kExit ? RunResult::Status::kExited
                                      : RunResult::Status::kFault,
               cycle_ + e->delta.cycle);
        return nullptr;
      }
      if (!e->next) return rebuild(n, k);
      add(e->delta);
      cycle_ += e->delta.cycle;
      n = e->next;
      if (n->edges.empty() || n->fires) return rebuild(n, 0);
    }
  }

  /// Instructions the recorded segment has issued so far.
  std::uint32_t recorded_issues() const {
    return static_cast<std::uint32_t>(issued_ - rec_issued_);
  }

  /// Add a replayed segment's counters (its cycles aside).
  void add(const Tally& d) {
    auto& st = result_.stats;
    st.exec_stall_cycles += d.exec_stall;
    st.queue_empty_cycles += d.queue_empty;
    st.store_gate_stalls += d.gate_stalls;
    replayed_hits_ += d.icache_hits;
    fetch_.words_delivered += d.fetch.words_delivered;
    fetch_.mac_words_seen += d.fetch.mac_words_seen;
    fetch_.ctr_ops += d.fetch.ctr_ops;
    fetch_.cbc_ops += d.fetch.cbc_ops;
    fetch_.blocks += d.fetch.blocks;
    fetch_.verifications += d.fetch.verifications;
  }

  Tally tally() const {
    const auto& st = result_.stats;
    return {cycle_,
            st.exec_stall_cycles,
            st.queue_empty_cycles,
            st.store_gate_stalls,
            icache_.hits(),
            static_cast<const FetchCounters&>(fetch_)};
  }

  /// A store hit fetched text: opened blocks may change, so the rest of the
  /// run steps.
  void stop_memo() {
    memo_on_ = false;
    recording_ = nullptr;
  }

  // The key (see the memo comment above), in 64-bit words:
  //   [0] origin | pending label present << 1 | label << 8 | parity << 16
  //       | queued count << 24 | staged count << 40
  //   [1] entry word << 32 | prevPC word
  //   [2] E - (C + 1), modulo 2^64
  //   [3] [4] the CTR and CBC (or the one shared) free slots past E
  //   [5] busy_until_, [6...] reg_ready_ of r1 up, past C + 1
  //   then per queued, then staged instruction: its fields; its pc and
  //   flags; its ready and store-gate cycles past C + 1.
  static constexpr std::size_t kKeyRegs = 6;
  static constexpr std::size_t kKeyInsts = kKeyRegs + isa::kNumRegs - 1;

  void build_key(Origin origin) {
    const SofiaFetch::Continuation& c = fetch_.continuation();
    const Ring<FetchedInst>& staged = fetch_.staged();
    const std::uint64_t now = cycle_ + 1;
    const auto past_now = [now](std::uint64_t t) {
      return t > now ? t - now : 0;
    };
    const auto past_entry = [&c](std::uint64_t slot) {
      return slot > c.cycle ? slot - c.cycle : 0;
    };
    const bool alternate = config_.cipher.alternate;
    key_.clear();
    key_.push_back(static_cast<std::uint64_t>(origin) |
                   std::uint64_t{c.pending.has_value()} << 1 |
                   std::uint64_t{c.pending.value_or(0)} << 8 |
                   (alternate ? c.cycle & 1 : 0) << 16 |
                   std::uint64_t{queue_.size()} << 24 |
                   std::uint64_t{staged.size()} << 40);
    key_.push_back(std::uint64_t{c.target_word} << 32 | c.prev_word);
    key_.push_back(c.cycle - now);
    key_.push_back(past_entry(engine_.next_slot(CipherEngine::Op::kCtr)));
    key_.push_back(
        alternate ? past_entry(engine_.next_slot(CipherEngine::Op::kCbc)) : 0);
    key_.push_back(past_now(busy_until_));
    for (unsigned r = 1; r < isa::kNumRegs; ++r)
      key_.push_back(past_now(reg_ready_[r]));
    const auto put = [&](const FetchedInst& fi) {
      const Instruction& in = fi.inst;
      key_.push_back(static_cast<std::uint64_t>(in.op) |
                     std::uint64_t{in.rd} << 8 | std::uint64_t{in.ra} << 16 |
                     std::uint64_t{in.rb} << 24 |
                     std::uint64_t{static_cast<std::uint32_t>(in.imm)} << 32);
      key_.push_back(std::uint64_t{fi.pc} |
                     std::uint64_t{fi.fetch_redirected} << 32 |
                     std::uint64_t{fi.gated} << 33 |
                     std::uint64_t{fi.exit_label} << 40);
      key_.push_back(past_now(fi.ready));
      key_.push_back(past_now(fi.store_gate));
    };
    for (std::size_t i = 0; i < queue_.size(); ++i) put(queue_[i]);
    for (std::size_t i = 0; i < staged.size(); ++i) put(staged[i]);
  }

  /// Put the machine in the state of `n`'s key at the current cycle, its
  /// entry due, with the first `replayed` instructions' effects known.
  Node* rebuild(Node* n, std::uint32_t replayed) {
    const std::vector<std::uint64_t>& key = n->key;
    const std::uint64_t now = cycle_ + 1;
    SofiaFetch::Continuation c;
    c.target_word = static_cast<std::uint32_t>(key[1] >> 32);
    c.prev_word = static_cast<std::uint32_t>(key[1]);
    c.cycle = now + key[2];
    if (key[0] & 2) c.pending = static_cast<std::uint8_t>(key[0] >> 8);
    engine_.set_next_slot(CipherEngine::Op::kCtr, c.cycle + key[3]);
    if (config_.cipher.alternate)
      engine_.set_next_slot(CipherEngine::Op::kCbc, c.cycle + key[4]);
    busy_until_ = now + key[5];
    for (unsigned r = 1; r < isa::kNumRegs; ++r)
      reg_ready_[r] = now + key[kKeyRegs + r - 1];
    const auto get = [&](std::size_t at) {
      FetchedInst fi;
      const std::uint64_t f = key[at];
      fi.inst.op = static_cast<Opcode>(f & 0xFF);
      fi.inst.rd = static_cast<std::uint8_t>(f >> 8);
      fi.inst.ra = static_cast<std::uint8_t>(f >> 16);
      fi.inst.rb = static_cast<std::uint8_t>(f >> 24);
      fi.inst.imm =
          static_cast<std::int32_t>(static_cast<std::uint32_t>(f >> 32));
      const std::uint64_t pc = key[at + 1];
      fi.pc = static_cast<std::uint32_t>(pc);
      fi.fetch_redirected = (pc >> 32) & 1;
      fi.gated = (pc >> 33) & 1;
      fi.exit_label = static_cast<std::uint8_t>(pc >> 40);
      fi.ready = now + key[at + 2];
      fi.store_gate = now + key[at + 3];
      return fi;
    };
    const std::size_t queued = (key[0] >> 24) & 0xFFFF;
    const std::size_t staged = key[0] >> 40;
    std::size_t at = kKeyInsts;
    queue_.clear();
    for (std::size_t i = 0; i < queued; ++i, at += 4) queue_.push_back(get(at));
    Ring<FetchedInst>& ring = fetch_.staged();
    ring.clear();
    for (std::size_t i = 0; i < staged; ++i, at += 4) ring.push_back(get(at));
    fetch_.resume(c);
    replayed_ = 0;
    replayed_end_ = replayed;
    return n;
  }

  const SimConfig& config_;
  RunResult result_;
  Core core_;
  ICache icache_;
  CipherEngine engine_;
  Fetch fetch_;
  Ring<FetchedInst> queue_;  ///< at most config_.fetch_queue entries
  std::uint64_t reg_ready_[isa::kNumRegs] = {};
  std::uint64_t cycle_ = 0;
  std::uint64_t busy_until_ = 0;
  bool done_ = false;

  // The segment memo (SOFIA runs that may replay).
  bool memo_on_;
  SegmentMemo memo_;
  std::vector<std::uint64_t> key_;  ///< build_key() scratch
  Node* recording_ = nullptr;       ///< the node whose segment is stepping
  Tally rec_start_;                 ///< the counters at its entry
  std::uint64_t rec_issued_ = 0;    ///< issued_ at its entry
  std::uint64_t issued_ = 0;        ///< instructions executed by stepping
  Effect last_effect_;              ///< the last one's effect
  /// Effects of the instructions a replay ran; the execute step takes
  /// effects_[replayed_ .. replayed_end_) before it runs the core again.
  std::vector<Effect> effects_;
  std::uint32_t replayed_ = 0;
  std::uint32_t replayed_end_ = 0;
  std::uint64_t replayed_hits_ = 0;  ///< I-cache hits of replayed entries
};

}  // namespace

RunResult run_image(const assembler::LoadImage& image, const SimConfig& config,
                    BlockStore* store) {
  // With no queue entry the execute side never gets an instruction.
  if (config.fetch_queue == 0)
    throw Error("sim: the fetch queue must hold at least one instruction");
  if (image.sofia) return Machine<SofiaFetch>(image, config, store).run();
  return Machine<VanillaFetch>(image, config, store).run();
}

}  // namespace sofia::sim
