#include "crypto/rectangle80.hpp"

#include "support/bits.hpp"

namespace sofia::crypto {
namespace {

struct State {
  std::uint16_t row[4];
};

State unpack(std::uint64_t block) {
  State s;
  for (int r = 0; r < 4; ++r)
    s.row[r] = static_cast<std::uint16_t>(block >> (16 * r));
  return s;
}

std::uint64_t pack(const State& s) {
  std::uint64_t b = 0;
  for (int r = 0; r < 4; ++r) b |= static_cast<std::uint64_t>(s.row[r]) << (16 * r);
  return b;
}

// SubColumn, bitsliced: bit r of every output nibble is a boolean function of
// the input rows, so one pass of word-wide ops applies the S-box
//   S = {6, 5, C, A, 1, E, 7, 9, B, 0, 3, D, 8, F, 4, 2}
// to all 16 columns at once (row r carries bit r of each column's nibble).
// The 12-op forward circuit is the designers' (RECTANGLE, Zhang et al. 2015).
void sub_column(State& s) {
  const std::uint16_t a0 = s.row[0], a1 = s.row[1], a2 = s.row[2], a3 = s.row[3];
  const auto t1 = static_cast<std::uint16_t>(~a1);
  const std::uint16_t t2 = a0 & t1;
  const std::uint16_t t3 = a2 ^ a3;
  const std::uint16_t b0 = t2 ^ t3;
  const std::uint16_t t5 = a3 | t1;
  const std::uint16_t t6 = a0 ^ t5;
  const std::uint16_t b1 = a2 ^ t6;
  const std::uint16_t t8 = a1 ^ a2;
  const std::uint16_t t9 = t3 & t6;
  const std::uint16_t b3 = t8 ^ t9;
  const std::uint16_t t11 = b0 | t8;
  const std::uint16_t b2 = t6 ^ t11;
  s.row[0] = b0;
  s.row[1] = b1;
  s.row[2] = b2;
  s.row[3] = b3;
}

// Inverse SubColumn: the algebraic normal form of S^-1, bit by bit.
void inv_sub_column(State& s) {
  const std::uint16_t a0 = s.row[0], a1 = s.row[1], a2 = s.row[2], a3 = s.row[3];
  const std::uint16_t a01 = a0 & a1;
  const std::uint16_t a03 = a0 & a3;
  const std::uint16_t a13 = a1 & a3;
  const std::uint16_t a23 = a2 & a3;
  s.row[0] = static_cast<std::uint16_t>(~(a0 ^ a2 ^ a3 ^ (a01 & a2) ^ a13 ^ a23));
  s.row[1] = a1 ^ a2 ^ (a0 & a2) ^ a03;
  s.row[2] = a0 ^ a1 ^ a2 ^ a3 ^ a03;
  s.row[3] = static_cast<std::uint16_t>(
      ~(a0 ^ a01 ^ (a1 & a2) ^ a13 ^ (a01 & a3) ^ a23));
}

void shift_row(State& s) {
  s.row[1] = rotl16(s.row[1], 1);
  s.row[2] = rotl16(s.row[2], 12);
  s.row[3] = rotl16(s.row[3], 13);
}

void inv_shift_row(State& s) {
  s.row[1] = rotr16(s.row[1], 1);
  s.row[2] = rotr16(s.row[2], 12);
  s.row[3] = rotr16(s.row[3], 13);
}

void add_round_key(State& s, const std::uint16_t (&key)[4]) {
  for (int r = 0; r < 4; ++r) s.row[r] ^= key[r];
}

}  // namespace

std::array<std::uint8_t, Rectangle80::kRounds> Rectangle80::round_constants() {
  // 5-bit LFSR: shift left, feedback bit = bit4 ^ bit2 of the previous value.
  std::array<std::uint8_t, kRounds> rc{};
  std::uint8_t v = 0x01;
  for (int i = 0; i < kRounds; ++i) {
    rc[static_cast<std::size_t>(i)] = v;
    const std::uint8_t fb = static_cast<std::uint8_t>(((v >> 4) ^ (v >> 2)) & 1u);
    v = static_cast<std::uint8_t>(((v << 1) | fb) & 0x1Fu);
  }
  return rc;
}

Rectangle80::Rectangle80(const CipherKey& key) {
  std::uint16_t k[5];
  for (int r = 0; r < 5; ++r) {
    k[r] = static_cast<std::uint16_t>(
        key[static_cast<std::size_t>(2 * r)] |
        (key[static_cast<std::size_t>(2 * r + 1)] << 8));
  }
  const auto rc = round_constants();
  for (int i = 0; i <= kRounds; ++i) {
    for (int r = 0; r < 4; ++r) subkeys_[static_cast<std::size_t>(i)].row[r] = k[r];
    if (i == kRounds) break;
    // S-box on the 4 low-order columns of rows 0..3.
    State low{{k[0], k[1], k[2], k[3]}};
    sub_column(low);
    for (int r = 0; r < 4; ++r)
      k[r] = static_cast<std::uint16_t>((k[r] & ~0xFu) | (low.row[r] & 0xFu));
    // Generalized Feistel step.
    const std::uint16_t r0 = k[0];
    k[0] = static_cast<std::uint16_t>(rotl16(k[0], 8) ^ k[1]);
    k[1] = k[2];
    k[2] = k[3];
    k[3] = static_cast<std::uint16_t>(rotl16(k[3], 12) ^ k[4]);
    k[4] = r0;
    // Round constant into the low 5 bits of row 0.
    k[0] = static_cast<std::uint16_t>(k[0] ^ rc[static_cast<std::size_t>(i)]);
  }
}

std::uint64_t Rectangle80::encrypt(std::uint64_t block) const {
  State s = unpack(block);
  for (int i = 0; i < kRounds; ++i) {
    add_round_key(s, subkeys_[static_cast<std::size_t>(i)].row);
    sub_column(s);
    shift_row(s);
  }
  add_round_key(s, subkeys_[kRounds].row);
  return pack(s);
}

std::uint64_t Rectangle80::decrypt(std::uint64_t block) const {
  State s = unpack(block);
  add_round_key(s, subkeys_[kRounds].row);
  for (int i = kRounds - 1; i >= 0; --i) {
    inv_shift_row(s);
    inv_sub_column(s);
    add_round_key(s, subkeys_[static_cast<std::size_t>(i)].row);
  }
  return pack(s);
}

}  // namespace sofia::crypto
