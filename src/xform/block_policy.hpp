// Block geometry (paper §II-E: "The size of both block types is chosen to
// be eight 32-bit words. Therefore, the execution block consists of 2 MAC
// words and 6 instructions, while a multiplexor block consists of 3 MAC
// words and 5 instructions.").
//
// The geometry is parameterized so the paper's design alternatives can be
// measured: Fig. 5's smaller block (4 instructions, no store restriction)
// vs Fig. 6's 6-instruction block with stores banned from inst1/inst2.
// The store restriction is expressed as a *word index* threshold, which
// covers both block kinds with one hardware rule: a store-class instruction
// may only occupy block word indices >= store_min_word.
#pragma once

#include <cstdint>
#include <string>

#include "isa/isa.hpp"

namespace sofia::xform {

/// The block-word rule an instruction's placement breaks, if any.
enum class Placement : std::uint8_t {
  kOk,
  kControlOffExit,   ///< control outside the exit slot (the last word)
  kRestrictedStore,  ///< a store below store_min_word
};

struct BlockPolicy {
  /// Total 32-bit words per block (execution and multiplexor alike).
  std::uint32_t words_per_block = 8;
  /// First block word index where a store-class instruction may sit
  /// (0 = unrestricted). Default 4 = the paper's inst1/inst2 ban.
  std::uint32_t store_min_word = 4;

  /// Instruction slots in an execution block (2 MAC words).
  std::uint32_t exec_insts() const { return words_per_block - 2; }
  /// Instruction slots in a multiplexor block (3 MAC words).
  std::uint32_t mux_insts() const { return words_per_block - 3; }

  /// The paper's default: 8-word blocks, stores banned from inst1/inst2.
  static BlockPolicy paper_default() { return {8, 4}; }
  /// Fig. 5's alternative: 6-word blocks (4 instructions), no restriction.
  static BlockPolicy small_unrestricted() { return {6, 0}; }

  /// The one statement of the placement rules the packer, the verifier
  /// and the device each enforce: control only in the exit slot, stores
  /// only at or past store_min_word. `word` is the block word index.
  Placement placement(isa::Opcode op, std::uint32_t word) const {
    if (isa::is_control(op) && word != words_per_block - 1)
      return Placement::kControlOffExit;
    if (isa::is_store(op) && word < store_min_word)
      return Placement::kRestrictedStore;
    return Placement::kOk;
  }

  /// Throws sofia::TransformError when the geometry is unusable.
  void validate() const;

  std::string describe() const;

  friend bool operator==(const BlockPolicy&, const BlockPolicy&) = default;
};

}  // namespace sofia::xform
