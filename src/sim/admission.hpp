// Block admission: the one definition of the order in which the SOFIA
// device vets a block entry (paper §II-B, §II-E), shared by both execution
// backends. In check order:
//
//   1. entry offset: a transfer may land only on word 0, 1 or 2 of a block
//      (the execution entry or one of the two multiplexor paths);
//   2. the protection scheme's decrypt-and-verify verdict;
//   3. the forward-edge gate (gating schemes only): an indirect transfer
//      must land on an entry sealed with the source exit's target-set label;
//   4. per word, from the first instruction slot on: the word decodes, a
//      control instruction sits only in the exit slot, a store only at or
//      past BlockPolicy::store_min_word.
//
// The first rule that fires pulls the reset line. admit() evaluates every
// rule that is a property of the block itself. The gate is the one rule
// that depends on how the block was reached, so Admission::check() splices
// it into the order per transfer, and a cached Admission stays valid for
// any incoming transfer. Each backend only maps "rule at block word w" onto
// its own clock.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "isa/isa.hpp"
#include "scheme/scheme.hpp"
#include "sim/config.hpp"
#include "xform/block_policy.hpp"

namespace sofia::sim {

struct Admission {
  /// The rules, in check order.
  enum class Rule : std::uint8_t {
    kInvalidEntry,        ///< fires before anything is fetched
    kVerdict,             ///< fires when verification completes
    kTargetSet,           ///< fires when verification completes
    kIllegalInstruction,  ///< word rules: fire when their word decodes
    kIllegalExit,
    kRestrictedStore,
    kNone,  ///< admitted
  };

  /// A rule that fired, at block word `word`: the entry word for
  /// kInvalidEntry, the offending word for the word rules, 0 otherwise.
  struct Violation {
    Rule rule = Rule::kNone;
    ResetCause cause = ResetCause::kNone;
    std::uint32_t word = 0;

    bool fired() const { return rule != Rule::kNone; }
    bool at_word() const {
      return fired() && rule >= Rule::kIllegalInstruction;
    }
  };

  std::uint32_t base_word = 0;  ///< word address of the block's first word
  /// The first rule the block trips by itself (the gate aside).
  Violation own;
  std::uint32_t first_inst = 0;  ///< block word index of insts[0]
  /// The decoded instruction slots, up to the first word rule (all of them
  /// when none fires).
  std::vector<isa::Instruction> insts;
  bool gate_indirect = false;    ///< the scheme gates indirect transfers
  std::uint8_t entry_label = 0;  ///< label of the entered path
  std::uint8_t exit_label = 0;   ///< label the exit jalr may reach

  /// The rule a transfer into this entry trips, in check order: the gate
  /// comes after the entry and verdict rules and before the word rules.
  /// `pending` is the source exit label of a gated indirect transfer,
  /// nullopt for any other.
  Violation check(std::optional<std::uint8_t> pending) const {
    if (own.rule > Rule::kTargetSet && pending &&
        (!gate_indirect || entry_label == 0 || entry_label != *pending))
      return {Rule::kTargetSet, ResetCause::kTargetSetViolation, 0};
    return own;
  }

  /// Byte address a reset for `v` reports.
  std::uint32_t reset_pc(const Violation& v) const {
    return (base_word + v.word) * 4;
  }
};

/// The fetch schedules of the three valid entry offsets, indexed by offset
/// (scheme::entry_path), built once per run.
using EntryPaths = std::array<scheme::EntryPath, 3>;

inline EntryPaths entry_paths(std::uint32_t words_per_block) {
  return {scheme::entry_path(0, words_per_block),
          scheme::entry_path(1, words_per_block),
          scheme::entry_path(2, words_per_block)};
}

/// Admit the entry into the block holding `target_word`; `paths` is
/// entry_paths(policy.words_per_block). `open(base_word, path)` fetches the
/// block's words along `path`, opens them through the protection scheme and
/// returns the scheme::DeviceBlock (by value or by reference); it is called
/// only for a valid entry offset.
template <typename Open>
Admission admit(std::uint32_t target_word, std::uint32_t text_base_word,
                const xform::BlockPolicy& policy, const EntryPaths& paths,
                Open&& open) {
  using Rule = Admission::Rule;
  const std::uint32_t b = policy.words_per_block;
  const std::uint32_t offset = (target_word - text_base_word) % b;
  Admission adm;
  adm.base_word = target_word - offset;
  if (offset > 2) {
    adm.own = {Rule::kInvalidEntry, ResetCause::kInvalidEntry, offset};
    return adm;
  }
  const scheme::DeviceBlock& dev = open(adm.base_word, paths[offset]);
  adm.first_inst = dev.first_inst;
  adm.gate_indirect = dev.gate_indirect;
  adm.entry_label = dev.entry_label;
  adm.exit_label = dev.exit_label;
  if (dev.verify_cause != ResetCause::kNone) {
    adm.own = {Rule::kVerdict, dev.verify_cause, 0};
    return adm;
  }
  adm.insts.reserve(b - dev.first_inst);
  for (std::uint32_t w = dev.first_inst; w < b; ++w) {
    const auto decoded = isa::decode(dev.plain[w]);
    if (!decoded)
      adm.own = {Rule::kIllegalInstruction, ResetCause::kIllegalInstruction, w};
    else if (isa::is_control(decoded->op) && w != b - 1)
      adm.own = {Rule::kIllegalExit, ResetCause::kIllegalExit, w};
    else if (isa::is_store(decoded->op) && w < policy.store_min_word)
      adm.own = {Rule::kRestrictedStore, ResetCause::kRestrictedStore, w};
    if (adm.own.fired()) return adm;
    adm.insts.push_back(*decoded);
  }
  return adm;
}

}  // namespace sofia::sim
