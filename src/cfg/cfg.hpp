// Instruction-level control flow graph (paper §II-A: "a precise Control
// Flow Graph of the whole program" drives the encryption).
//
// Nodes are instruction indices into assembler::Program::text. The graph is
// built on a *normalized* program: annotated indirect jumps must already be
// devirtualized (xform/normalize.hpp), so the only surviving jalr form is
// `ret` (jalr r0, lr, 0). Returns are resolved by function analysis: every
// `ret` of a callee produces one return edge to each call site's return
// point, exactly the paper's "the return point in the caller is encrypted
// with the address of the return instruction in the callee".
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "assembler/program.hpp"

namespace sofia::cfg {

enum class EdgeKind : std::uint8_t {
  kFallThrough,  ///< sequential flow from a non-control instruction
  kBranchFall,   ///< not-taken side of a conditional branch
  kBranchTaken,  ///< taken side of a conditional branch
  kJump,         ///< unconditional jal r0 (j)
  kCall,         ///< jal rd != r0
  kReturn,       ///< callee ret -> call-site return point
  kIndirect,     ///< surviving annotated jalr -> declared .targets member
};

std::string_view to_string(EdgeKind kind);

struct Edge {
  std::uint32_t from = 0;  ///< index of the transferring instruction
  std::uint32_t to = 0;    ///< index of the target (always a leader)
  EdgeKind kind = EdgeKind::kFallThrough;

  friend bool operator==(const Edge&, const Edge&) = default;
};

struct FunctionInfo {
  std::string name;                     ///< defining label ("<entry>" for main)
  std::uint32_t entry = 0;              ///< first instruction index
  std::vector<std::uint32_t> body;      ///< sorted instruction indices
  std::vector<std::uint32_t> rets;      ///< ret instruction indices
  std::vector<std::uint32_t> call_sites;  ///< jal indices that call this entry
};

class Cfg {
 public:
  /// Analyze a normalized program. Throws sofia::TransformError on
  /// unanalyzable control flow (stray jalr, falling off the end, a ret
  /// shared between functions, a ret in an uncalled entry function).
  static Cfg build(const assembler::Program& prog);

  /// Sorted instruction indices that begin a straight-line run. Position 0
  /// is always index 0.
  const std::vector<std::uint32_t>& leaders() const { return leaders_; }

  bool is_leader(std::uint32_t index) const {
    return leader_pos_.count(index) != 0;
  }

  /// Exclusive end of the run starting at `leader` (the next leader, or the
  /// end of text). Within a run only the final instruction can be control.
  std::uint32_t run_end(std::uint32_t leader) const;

  /// All edges, in deterministic order.
  const std::vector<Edge>& edges() const { return edges_; }

  /// Incoming edges of a leader (empty vector for unreferenced leaders).
  const std::vector<Edge>& preds(std::uint32_t leader) const;

  /// Program entry instruction index.
  std::uint32_t entry() const { return entry_; }

  const std::vector<FunctionInfo>& functions() const { return functions_; }

  /// Function whose entry is `index`, or nullptr.
  const FunctionInfo* function_at(std::uint32_t index) const;

 private:
  std::vector<std::uint32_t> leaders_;
  std::unordered_map<std::uint32_t, std::size_t> leader_pos_;
  std::vector<Edge> edges_;
  std::unordered_map<std::uint32_t, std::vector<Edge>> preds_;
  std::vector<FunctionInfo> functions_;
  std::uint32_t entry_ = 0;
  std::uint32_t text_size_ = 0;
};

}  // namespace sofia::cfg
