// Block packer: turns a normalized program + its CFG into a sequence of
// SOFIA blocks (paper §II-E and §III "instructions are transformed into
// execution blocks and multiplexor blocks", with multiplexor trees inserted
// for joins, Fig. 9).
//
// Layout invariants (checked by tests):
//  * every leader's first instruction occupies instruction slot 0 of its
//    first block; control can only enter a block at its entry word(s);
//  * control-transfer instructions occupy only the last word of a block;
//  * store-class instructions respect BlockPolicy::store_min_word;
//  * an execution block has exactly one predecessor "exit word"; a
//    multiplexor block has exactly two; joins with more predecessors get a
//    forwarding tree (4 NOPs + jump per node, p-2 nodes for p preds);
//  * fall-through only ever enters an execution block, and the fall-through
//    predecessor is laid out immediately before it.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "assembler/image.hpp"
#include "assembler/program.hpp"
#include "cfg/cfg.hpp"
#include "xform/block_policy.hpp"

namespace sofia::xform {

inline constexpr std::uint32_t kSynthesized = 0xFFFFFFFFu;

enum class BlockKind : std::uint8_t { kExec, kMux };

/// Where a block-entry edge comes from.
struct PredRef {
  enum class Kind : std::uint8_t {
    kReset,      ///< architectural reset (program entry / unreachable code)
    kBlockExit,  ///< last word of a predecessor block (by block id)
    kInstBlock,  ///< last word of the block that holds a given source
                 ///< instruction (resolved after packing; used for return
                 ///< edges whose callee is laid out later)
    kIndirect,   ///< canonical indirect entry: sealed against the
                 ///< kIndirectPrevWord sentinel, shared by every gated
                 ///< jump-form jalr that declares this target
  };
  Kind kind = Kind::kReset;
  std::uint32_t value = 0;  ///< block id (kBlockExit) or inst index (kInstBlock)
};

struct PlacedInst {
  isa::Instruction inst;  ///< immediates resolved in the fixup phase
  std::uint32_t src = kSynthesized;  ///< original text index, or kSynthesized
  /// Set for control that needs a target fixup: the leader index this
  /// instruction transfers to (kSynthesized if none).
  std::uint32_t target_leader = kSynthesized;
  /// Edge identity used to look up the assigned entry: the `from`
  /// instruction index, or a forwarding/thunk block id (edge_forward).
  std::uint32_t edge_from = kSynthesized;
  bool edge_forward = false;
  /// Original reloc (kHi18/kLo14 need address fixups as well).
  assembler::RelocKind reloc = assembler::RelocKind::kNone;
  std::string reloc_label;  ///< label for kHi18/kLo14
};

struct Block {
  BlockKind kind = BlockKind::kExec;
  std::uint32_t id = 0;
  std::vector<PlacedInst> insts;  ///< exec_insts() or mux_insts() entries
  PredRef pred1;                  ///< exec: the only pred; mux: entry-1 pred
  PredRef pred2;                  ///< mux only
  std::uint32_t base_word = 0;    ///< assigned in the address phase
  std::uint32_t pred1_word = 0;   ///< resolved prevPC for the entry word(s)
  std::uint32_t pred2_word = 0;   ///< mux entry 2's resolved prevPC
  /// True for forwarding (multiplexor-tree interior) and thunk blocks.
  bool synthesized = false;
  /// Forward-edge target-set labels (scheme/label.hpp): zero unless the
  /// program has surviving jump-form jalr (gating schemes only).
  std::uint8_t entry1_label = 0;  ///< class of entry path 1 (word 0)
  std::uint8_t entry2_label = 0;  ///< class of entry path 2 (mux word 1)
  std::uint8_t exit_label = 0;    ///< class the exit-slot jalr may reach
};

/// Identifies which entry of which block an edge must target.
struct EntryRef {
  std::uint32_t block_id = 0;
  /// Word offset a transfer must target: 0 = execution block; 1 = mux
  /// path 1 (fetch starts at word 0); 2 = mux path 2 (fetch starts at 1).
  std::uint32_t entry_offset = 0;
};

/// Key for resolving a CFG edge to its assigned entry.
struct EdgeKey {
  std::uint32_t from = 0;  ///< instruction index, or forwarding block id tag
  std::uint32_t to = 0;    ///< leader index
  bool from_forward = false;  ///< true when `from` names a forwarding block

  auto operator<=>(const EdgeKey&) const = default;
};

struct LayoutStats {
  std::uint32_t source_insts = 0;
  std::uint32_t exec_blocks = 0;
  std::uint32_t mux_blocks = 0;      ///< join blocks holding real instructions
  std::uint32_t forward_blocks = 0;  ///< multiplexor-tree interior nodes
  std::uint32_t thunk_blocks = 0;    ///< branch-fall-into-mux trampolines
  std::uint32_t pad_nops = 0;
  std::uint32_t synth_jumps = 0;
};

class BlockLayout {
 public:
  /// Pack the program, resolving all immediates against the new layout.
  /// Every source instruction is placed, reachable or not (the paper's
  /// transformation emits everything). Throws sofia::TransformError on
  /// layout violations.
  static BlockLayout pack(const assembler::Program& prog, const cfg::Cfg& cfg,
                          const BlockPolicy& policy,
                          const assembler::MemoryLayout& mem);

  const std::vector<Block>& blocks() const { return blocks_; }
  std::vector<Block>& blocks() { return blocks_; }
  const BlockPolicy& policy() const { return policy_; }
  const LayoutStats& stats() const { return stats_; }

  /// Byte address of the word a given source instruction was placed at.
  std::uint32_t placed_addr(std::uint32_t src_index) const;

  /// Byte address of the base (word 0) of the block holding a given source
  /// instruction — the address a code-reuse attacker would aim at.
  std::uint32_t block_base_addr(std::uint32_t src_index) const;

  /// Entry assigned to a CFG edge arriving at `to`.
  EntryRef entry_for(const EdgeKey& key) const;

  /// Byte address a transfer taking this edge must target.
  std::uint32_t entry_target_addr(const EntryRef& ref) const;

  /// The entry the architectural reset uses (program start).
  EntryRef reset_entry() const { return reset_entry_; }

  /// Word address of a block's last word (the only exit word).
  std::uint32_t exit_word(std::uint32_t block_id) const;

  /// Canonical indirect entries: declared-target leader index -> the entry
  /// an indirect transfer must use. Empty unless the normalized program
  /// kept jump-form jalr (a gating scheme is active).
  const std::map<std::uint32_t, EntryRef>& indirect_entries() const {
    return indirect_entries_;
  }

  /// Is this text index a declared indirect-jump target?
  bool is_indirect_target(std::uint32_t text_index) const {
    return indirect_entries_.count(text_index) != 0;
  }

  /// Byte address an indirect transfer to this target leader must use
  /// (also what its text label resolves to in data tables and address
  /// materializations). Throws for non-targets.
  std::uint32_t indirect_entry_addr(std::uint32_t text_index) const;

  std::uint32_t text_base_word() const { return text_base_word_; }
  std::uint32_t total_words() const {
    return static_cast<std::uint32_t>(blocks_.size()) * policy_.words_per_block;
  }

 private:
  std::vector<Block> blocks_;
  BlockPolicy policy_;
  LayoutStats stats_;
  std::map<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>>
      placement_;  ///< src index -> (block id, slot)
  std::map<EdgeKey, EntryRef> entries_;
  std::map<std::uint32_t, EntryRef> indirect_entries_;
  EntryRef reset_entry_;
  std::uint32_t text_base_word_ = 0;
};

}  // namespace sofia::xform
