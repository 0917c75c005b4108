// SR32: the small 32-bit RISC ISA this reproduction uses in place of
// SPARCv8 (see DESIGN.md §1 for why the substitution is faithful).
//
// Fixed 32-bit instruction words, 16 registers (r0 hardwired to zero,
// r14 = sp, r15 = lr by convention; r13 is reserved by the SOFIA
// transformer as a scratch register for devirtualized indirect jumps).
// No delay slots, no register windows.
//
// Encoding (bit ranges inclusive):
//   opcode  [31:26]
//   R-type:  rd [25:22]  ra [21:18]  rb [17:14]
//   I-type:  rd [25:22]  ra [21:18]  imm14 [13:0]   (sign-extended unless noted)
//   store:   rs [25:22]  ra [21:18]  imm14 [13:0]   (rs = value, ra = base)
//   branch:  ra [25:22]  rb [21:18]  off14 [13:0]   (signed word offset)
//   JAL:     rd [25:22]  off22 [21:0]               (signed word offset)
//   LUI:     rd [25:22]  imm18 [17:0]               (rd = imm18 << 14)
//
// The all-zero word encodes NOP, so zero-initialized memory is inert.
// Logical immediates (ANDI/ORI/XORI) are zero-extended so that LUI+ORI
// composes 32-bit constants; arithmetic immediates are sign-extended.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace sofia::isa {

inline constexpr unsigned kNumRegs = 16;
inline constexpr unsigned kRegZero = 0;
inline constexpr unsigned kRegScratch = 13;  ///< transformer-reserved
inline constexpr unsigned kRegSp = 14;
inline constexpr unsigned kRegLr = 15;

enum class Opcode : std::uint8_t {
  kNop = 0,
  kHalt = 1,
  // R-type ALU
  kAdd = 2,
  kSub = 3,
  kAnd = 4,
  kOr = 5,
  kXor = 6,
  kSll = 7,
  kSrl = 8,
  kSra = 9,
  kSlt = 10,
  kSltu = 11,
  kMul = 12,
  // I-type ALU
  kAddi = 13,
  kAndi = 14,
  kOri = 15,
  kXori = 16,
  kSlli = 17,
  kSrli = 18,
  kSrai = 19,
  kSlti = 20,
  kSltiu = 21,
  kLui = 22,
  // Memory
  kLw = 23,
  kLh = 24,
  kLhu = 25,
  kLb = 26,
  kLbu = 27,
  kSw = 28,
  kSh = 29,
  kSb = 30,
  // Control
  kBeq = 31,
  kBne = 32,
  kBlt = 33,
  kBge = 34,
  kBltu = 35,
  kBgeu = 36,
  kJal = 37,
  kJalr = 38,
};

inline constexpr std::uint8_t kMaxOpcode = 38;

/// A decoded instruction. `imm` holds the sign- or zero-extended immediate
/// (word offsets for branches/JAL, raw 18-bit value for LUI).
struct Instruction {
  Opcode op = Opcode::kNop;
  std::uint8_t rd = 0;
  std::uint8_t ra = 0;
  std::uint8_t rb = 0;
  std::int32_t imm = 0;

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

/// Encode to a 32-bit word. Throws sofia::Error if a field is out of range.
std::uint32_t encode(const Instruction& inst);

namespace detail {

/// Operand layout of an opcode (the encoding table at the top of the file).
enum class Format : std::uint8_t {
  kInvalid,  ///< opcode bits past kMaxOpcode
  kNone, kR, kI, kIu, kShift, kStore, kBranch, kJal, kJalr, kLui,
};

constexpr Format format_of(std::uint32_t opbits) {
  if (opbits <= 1) return Format::kNone;            // nop, halt
  if (opbits <= 12) return Format::kR;              // add .. mul
  if (opbits == 13 || opbits == 20 || opbits == 21)  // addi, slti, sltiu
    return Format::kI;
  if (opbits <= 16) return Format::kIu;             // andi, ori, xori
  if (opbits <= 19) return Format::kShift;          // slli, srli, srai
  if (opbits == 22) return Format::kLui;
  if (opbits <= 27) return Format::kI;              // lw .. lbu
  if (opbits <= 30) return Format::kStore;          // sw, sh, sb
  if (opbits <= 36) return Format::kBranch;         // beq .. bgeu
  if (opbits == 37) return Format::kJal;
  if (opbits == 38) return Format::kJalr;
  return Format::kInvalid;
}

/// One row per value of the 6 opcode bits: the format, and how decode()
/// extracts its fields. A register field is (word >> shift) & mask (mask 0
/// when the format has none); the immediate is word & imm_mask,
/// sign-extended through imm_sign, its top bit (0 = zero-extended).
struct DecodeRow {
  Format format = Format::kInvalid;
  std::uint8_t rd_shift = 0, rd_mask = 0;
  std::uint8_t ra_shift = 0, ra_mask = 0;
  std::uint8_t rb_shift = 0, rb_mask = 0;
  std::uint32_t imm_mask = 0, imm_sign = 0;
};

constexpr DecodeRow decode_row(Format f) {
  switch (f) {
    case Format::kR:
      return {f, 22, 0xF, 18, 0xF, 14, 0xF, 0, 0};
    case Format::kI:
    case Format::kJalr:
    case Format::kStore:  // rd carries the store source
      return {f, 22, 0xF, 18, 0xF, 0, 0, 0x3FFF, 0x2000};
    case Format::kIu:
    case Format::kShift:
      return {f, 22, 0xF, 18, 0xF, 0, 0, 0x3FFF, 0};
    case Format::kLui:
      return {f, 22, 0xF, 0, 0, 0, 0, 0x3FFFF, 0};
    case Format::kBranch:
      return {f, 0, 0, 22, 0xF, 18, 0xF, 0x3FFF, 0x2000};
    case Format::kJal:
      return {f, 22, 0xF, 0, 0, 0, 0, 0x3FFFFF, 0x200000};
    case Format::kNone:
    case Format::kInvalid:
      break;
  }
  return {f};
}

inline constexpr auto kDecodeTable = [] {
  std::array<DecodeRow, 64> table{};
  for (std::uint32_t op = 0; op < table.size(); ++op)
    table[op] = decode_row(format_of(op));
  return table;
}();

}  // namespace detail

/// Decode a word; nullopt when the opcode is not defined (possible for
/// garbage produced by a CFI decryption error). Inline and branch-light:
/// every executed SOFIA block and every vanilla instruction decodes here.
inline std::optional<Instruction> decode(std::uint32_t word) {
  const std::uint32_t opbits = word >> 26;
  const detail::DecodeRow& row = detail::kDecodeTable[opbits];
  if (row.format == detail::Format::kInvalid) return std::nullopt;
  Instruction inst;
  inst.op = static_cast<Opcode>(opbits);
  inst.rd = static_cast<std::uint8_t>((word >> row.rd_shift) & row.rd_mask);
  inst.ra = static_cast<std::uint8_t>((word >> row.ra_shift) & row.ra_mask);
  inst.rb = static_cast<std::uint8_t>((word >> row.rb_shift) & row.rb_mask);
  const std::uint32_t imm = word & row.imm_mask;
  inst.imm = static_cast<std::int32_t>((imm ^ row.imm_sign) - row.imm_sign);
  return inst;
}

// ---- instruction classes -------------------------------------------------

constexpr bool is_store(Opcode op) {
  return op == Opcode::kSw || op == Opcode::kSh || op == Opcode::kSb;
}

constexpr bool is_load(Opcode op) {
  return op >= Opcode::kLw && op <= Opcode::kLbu;
}

/// Conditional branches (two successors).
constexpr bool is_cond_branch(Opcode op) {
  return op >= Opcode::kBeq && op <= Opcode::kBgeu;
}

constexpr bool is_jump(Opcode op) {
  return op == Opcode::kJal || op == Opcode::kJalr;
}

/// Exit-class: may only occupy the last instruction slot of a SOFIA block
/// ("control can only exit at inst_n", paper §II-B-1).
constexpr bool is_control(Opcode op) {
  return is_cond_branch(op) || is_jump(op) || op == Opcode::kHalt;
}

/// Does this instruction write rd? (Stores and branches do not.)
constexpr bool writes_rd(Opcode op) {
  return !(op == Opcode::kNop || op == Opcode::kHalt || is_store(op) ||
           is_cond_branch(op));
}

/// The canonical return (jalr r0, lr, 0), i.e. the assembler's `ret`.
constexpr bool is_ret(const Instruction& inst) {
  return inst.op == Opcode::kJalr && inst.rd == kRegZero && inst.ra == kRegLr &&
         inst.imm == 0;
}

/// Any other jalr: an indirect jump or call through a register.
constexpr bool is_indirect_jump(const Instruction& inst) {
  return inst.op == Opcode::kJalr && !is_ret(inst);
}

std::string_view mnemonic(Opcode op);

/// Canonical register name ("r7", with "sp"/"lr" for r14/r15).
std::string_view reg_name(unsigned reg);

}  // namespace sofia::isa
