#include "isa/isa.hpp"

#include "support/bits.hpp"
#include "support/error.hpp"

namespace sofia::isa {
namespace {

using detail::Format;

[[noreturn]] void field_error(const Instruction& inst, const char* what) {
  throw Error(std::string("encode ") + std::string(mnemonic(inst.op)) + ": " + what);
}

void check_reg(const Instruction& inst, unsigned r) {
  if (r >= kNumRegs) field_error(inst, "register out of range");
}

}  // namespace

std::uint32_t encode(const Instruction& inst) {
  const auto opbits = static_cast<std::uint32_t>(inst.op);
  std::uint32_t w = opbits << 26;
  const Format f = detail::format_of(opbits);
  check_reg(inst, inst.rd);
  check_reg(inst, inst.ra);
  check_reg(inst, inst.rb);
  const auto imm = static_cast<std::int64_t>(inst.imm);
  switch (f) {
    case Format::kInvalid:  // encoded as the bare opcode bits, as kNone
    case Format::kNone:
      break;
    case Format::kR:
      w = insert_bits(w, 22, 4, inst.rd);
      w = insert_bits(w, 18, 4, inst.ra);
      w = insert_bits(w, 14, 4, inst.rb);
      break;
    case Format::kI:
    case Format::kJalr:
      if (!fits_signed(imm, 14)) field_error(inst, "imm14 out of range");
      w = insert_bits(w, 22, 4, inst.rd);
      w = insert_bits(w, 18, 4, inst.ra);
      w = insert_bits(w, 0, 14, static_cast<std::uint32_t>(inst.imm));
      break;
    case Format::kIu:
      if (!fits_unsigned(static_cast<std::uint64_t>(inst.imm), 14) || inst.imm < 0)
        field_error(inst, "unsigned imm14 out of range");
      w = insert_bits(w, 22, 4, inst.rd);
      w = insert_bits(w, 18, 4, inst.ra);
      w = insert_bits(w, 0, 14, static_cast<std::uint32_t>(inst.imm));
      break;
    case Format::kShift:
      if (inst.imm < 0 || inst.imm > 31) field_error(inst, "shift amount out of range");
      w = insert_bits(w, 22, 4, inst.rd);
      w = insert_bits(w, 18, 4, inst.ra);
      w = insert_bits(w, 0, 14, static_cast<std::uint32_t>(inst.imm));
      break;
    case Format::kLui:
      if (!fits_unsigned(static_cast<std::uint64_t>(inst.imm), 18) || inst.imm < 0)
        field_error(inst, "imm18 out of range");
      w = insert_bits(w, 22, 4, inst.rd);
      w = insert_bits(w, 0, 18, static_cast<std::uint32_t>(inst.imm));
      break;
    case Format::kStore:
      if (!fits_signed(imm, 14)) field_error(inst, "imm14 out of range");
      w = insert_bits(w, 22, 4, inst.rd);  // rd field carries the store source
      w = insert_bits(w, 18, 4, inst.ra);
      w = insert_bits(w, 0, 14, static_cast<std::uint32_t>(inst.imm));
      break;
    case Format::kBranch:
      if (!fits_signed(imm, 14)) field_error(inst, "branch offset out of range");
      w = insert_bits(w, 22, 4, inst.ra);
      w = insert_bits(w, 18, 4, inst.rb);
      w = insert_bits(w, 0, 14, static_cast<std::uint32_t>(inst.imm));
      break;
    case Format::kJal:
      if (!fits_signed(imm, 22)) field_error(inst, "JAL offset out of range");
      w = insert_bits(w, 22, 4, inst.rd);
      w = insert_bits(w, 0, 22, static_cast<std::uint32_t>(inst.imm));
      break;
  }
  return w;
}

std::string_view mnemonic(Opcode op) {
  switch (op) {
    case Opcode::kNop: return "nop";
    case Opcode::kHalt: return "halt";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kSll: return "sll";
    case Opcode::kSrl: return "srl";
    case Opcode::kSra: return "sra";
    case Opcode::kSlt: return "slt";
    case Opcode::kSltu: return "sltu";
    case Opcode::kMul: return "mul";
    case Opcode::kAddi: return "addi";
    case Opcode::kAndi: return "andi";
    case Opcode::kOri: return "ori";
    case Opcode::kXori: return "xori";
    case Opcode::kSlli: return "slli";
    case Opcode::kSrli: return "srli";
    case Opcode::kSrai: return "srai";
    case Opcode::kSlti: return "slti";
    case Opcode::kSltiu: return "sltiu";
    case Opcode::kLui: return "lui";
    case Opcode::kLw: return "lw";
    case Opcode::kLh: return "lh";
    case Opcode::kLhu: return "lhu";
    case Opcode::kLb: return "lb";
    case Opcode::kLbu: return "lbu";
    case Opcode::kSw: return "sw";
    case Opcode::kSh: return "sh";
    case Opcode::kSb: return "sb";
    case Opcode::kBeq: return "beq";
    case Opcode::kBne: return "bne";
    case Opcode::kBlt: return "blt";
    case Opcode::kBge: return "bge";
    case Opcode::kBltu: return "bltu";
    case Opcode::kBgeu: return "bgeu";
    case Opcode::kJal: return "jal";
    case Opcode::kJalr: return "jalr";
  }
  return "?";
}

std::string_view reg_name(unsigned reg) {
  static constexpr std::string_view kNames[kNumRegs] = {
      "r0", "r1", "r2",  "r3",  "r4",  "r5", "r6", "r7",
      "r8", "r9", "r10", "r11", "r12", "r13", "sp", "lr"};
  return reg < kNumRegs ? kNames[reg] : "r?";
}

}  // namespace sofia::isa
