// Sound static dataflow over the linter's ProgramModel: a worklist-driven
// abstract interpreter computing, for every reachable block, the abstract
// value (see absval.hpp) each of the 16 registers can hold at block entry.
// Two consumers hang off the fixpoint:
//
//  * store safety — every store's abstract effective address, so the lint
//    can *prove* a store stays outside the sealed text section (silencing
//    the may-write warning) or prove it lands inside (an error, not a
//    heuristic guess);
//  * indirect-jump target sets — every surviving non-ret jalr's abstract
//    target, enumerated to a finite address set when the domain bounds it,
//    cross-checked against the `.targets`-declared gated set.
//
// The interpretation is interprocedural but context-insensitive: a call
// flows the caller's state into the callee with lr bound to the concrete
// link address, and a ret flows the callee's exit state to every recorded
// return target (the model's ret_targets). Gated jalr edges follow the
// declared target set — exactly the edges the runtime gate admits.
//
// The worklist pops the lowest pending block index first, so a loop body
// settles before the blocks after it see its intermediate states. Each
// block run starts from the block's entry state in place (no copy) and
// keeps every instruction's result; a later run recomputes only the
// instructions whose operands changed since the block last ran, and joins
// only the exit registers that changed into its successors. Both shortcuts
// skip work whose outcome is already known, so the fixpoint, the order of
// the visits and the `transfers` count are those of recomputing
// everything.
//
// Loads resolve against the *initial* data section only when the engine
// has proven no store can dirty the loaded bytes. That proof is itself a
// fixpoint: an outer iteration re-runs the analysis with a growing dirty
// byte set until the set stabilizes (or a bounded number of rounds passes,
// after which all data is treated as dirty — the sound fallback). This is
// what lets a table-driven dispatch prove its handler table clean: the
// table words are never the target of any store the engine can see.
#pragma once

#include <cstdint>
#include <vector>

#include "verify/absval.hpp"
#include "verify/verify.hpp"

namespace sofia::verify::dataflow {

/// One store instruction with its abstract effective address (the base
/// register's abstract value plus the immediate, at the program point just
/// before the store executes).
struct StoreFact {
  std::uint32_t block = 0;      ///< model block index
  std::uint32_t word_addr = 0;  ///< absolute word address of the store
  std::uint8_t size = 4;        ///< bytes written (sw/sh/sb)
  AbsVal addr;                  ///< abstract byte address written
};

/// One surviving non-ret jalr with its abstract target (ra + imm, with the
/// hardware's low-bit clearing applied).
struct IndirectFact {
  std::uint32_t block = 0;
  std::uint32_t word_addr = 0;
  AbsVal target;
};

struct DataflowResult {
  std::vector<StoreFact> stores;        ///< in (block, word) order
  std::vector<IndirectFact> indirects;  ///< in (block, word) order
  std::uint32_t rounds = 0;      ///< outer dirty-set iterations used
  /// Instructions walked: one per decoded instruction per block run,
  /// whether its transfer was computed or reused.
  std::uint64_t transfers = 0;
};

/// Run the abstract interpretation to fixpoint. Never throws for model
/// defects (undecodable words or invalid edges simply yield top states and
/// no facts for the affected paths); the lint rules attribute those
/// separately.
DataflowResult analyze(const ProgramModel& m);

}  // namespace sofia::verify::dataflow
