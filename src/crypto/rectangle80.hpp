// RECTANGLE-80 (Zhang, Bao, Lin, Rijmen, Yang, Verbauwhede; ePrint 2014/084):
// a bit-sliced SPN with a 64-bit block, an 80-bit key and 25 rounds, chosen
// by the SOFIA paper for its cheap unrolled hardware implementation.
//
// State: a 4x16 bit matrix, row r = bits [16r, 16r+16) of the block.
// Round: AddRoundKey, SubColumn (4-bit S-box down each of the 16 columns,
// row 0 = LSB of the nibble), ShiftRow (rows rotated left by 0/1/12/13).
// A final AddRoundKey follows round 25 (26 subkeys in total).
//
// The implementation is bitsliced, as the cipher was designed to be:
// SubColumn (and its inverse) is a short boolean circuit over the four
// 16-bit rows that transforms all 16 columns at once, with no lookup
// table. The key schedule's S-box step runs the same circuit.
//
// 80-bit key schedule: a 5x16 bit key state; each update applies the S-box
// to the 4 low-order columns of rows 0..3, a generalized Feistel step
//   row0' = (row0 <<< 8) ^ row1; row1' = row2; row2' = row3;
//   row3' = (row3 <<< 12) ^ row4; row4' = row0
// and XORs a 5-bit LFSR round constant into row0. Subkey i = rows 0..3.
//
// NOTE: the published test vectors are not available offline; the bit/row
// ordering conventions here are fixed and documented, and the implementation
// is validated structurally (bijectivity, inverse, avalanche) plus at the
// mode level against SPECK-64/128. See DESIGN.md §1.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/block_cipher.hpp"

namespace sofia::crypto {

class Rectangle80 final : public BlockCipher64 {
 public:
  static constexpr int kRounds = 25;

  /// Uses the first 10 bytes of `key` (row r of the key state = bytes 2r,
  /// 2r+1, little-endian).
  explicit Rectangle80(const CipherKey& key);

  std::uint64_t encrypt(std::uint64_t block) const override;
  std::uint64_t decrypt(std::uint64_t block) const override;
  std::string_view name() const override { return "RECTANGLE-80"; }

  /// The 5-bit round-constant sequence (exposed for tests).
  static std::array<std::uint8_t, kRounds> round_constants();

 private:
  struct Subkey {
    std::uint16_t row[4];
  };
  std::array<Subkey, kRounds + 1> subkeys_{};
};

}  // namespace sofia::crypto
