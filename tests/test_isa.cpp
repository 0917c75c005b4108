#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "isa/disasm.hpp"
#include "isa/isa.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sofia::isa {
namespace {

Instruction make(Opcode op, unsigned rd = 0, unsigned ra = 0, unsigned rb = 0,
                 std::int32_t imm = 0) {
  Instruction i;
  i.op = op;
  i.rd = static_cast<std::uint8_t>(rd);
  i.ra = static_cast<std::uint8_t>(ra);
  i.rb = static_cast<std::uint8_t>(rb);
  i.imm = imm;
  return i;
}

TEST(Isa, NopEncodesToZeroWord) {
  EXPECT_EQ(encode(make(Opcode::kNop)), 0u);
  const auto d = decode(0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->op, Opcode::kNop);
}

TEST(Isa, RoundTripRType) {
  const auto inst = make(Opcode::kAdd, 3, 4, 5);
  const auto d = decode(encode(inst));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, inst);
}

TEST(Isa, RoundTripITypeSignedImmediates) {
  for (const std::int32_t imm : {-8192, -1, 0, 1, 8191}) {
    const auto inst = make(Opcode::kAddi, 7, 2, 0, imm);
    const auto d = decode(encode(inst));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, inst) << imm;
  }
}

TEST(Isa, RoundTripUnsignedImmediates) {
  const auto inst = make(Opcode::kOri, 1, 1, 0, 0x3FFF);
  const auto d = decode(encode(inst));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->imm, 0x3FFF);  // zero-extended, not -1
}

TEST(Isa, RoundTripLui) {
  const auto inst = make(Opcode::kLui, 9, 0, 0, 0x3FFFF);
  const auto d = decode(encode(inst));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, inst);
}

TEST(Isa, RoundTripBranchOffsets) {
  for (const std::int32_t off : {-8192, -100, 0, 100, 8191}) {
    const auto inst = make(Opcode::kBlt, 0, 3, 4, off);
    const auto d = decode(encode(inst));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, inst) << off;
  }
}

TEST(Isa, RoundTripJal) {
  for (const std::int32_t off : {-(1 << 21), -1, 0, (1 << 21) - 1}) {
    const auto inst = make(Opcode::kJal, kRegLr, 0, 0, off);
    const auto d = decode(encode(inst));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, inst) << off;
  }
}

TEST(Isa, RoundTripStore) {
  const auto inst = make(Opcode::kSw, 5, 14, 0, -4);
  const auto d = decode(encode(inst));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, inst);
}

TEST(Isa, EncodeRejectsOutOfRangeImmediates) {
  EXPECT_THROW(encode(make(Opcode::kAddi, 1, 1, 0, 8192)), Error);
  EXPECT_THROW(encode(make(Opcode::kAddi, 1, 1, 0, -8193)), Error);
  EXPECT_THROW(encode(make(Opcode::kOri, 1, 1, 0, -1)), Error);
  EXPECT_THROW(encode(make(Opcode::kSlli, 1, 1, 0, 32)), Error);
  EXPECT_THROW(encode(make(Opcode::kLui, 1, 0, 0, 0x40000)), Error);
  EXPECT_THROW(encode(make(Opcode::kBeq, 0, 1, 2, 8192)), Error);
  EXPECT_THROW(encode(make(Opcode::kJal, 15, 0, 0, 1 << 21)), Error);
}

TEST(Isa, DecodeRejectsUndefinedOpcodes) {
  for (std::uint32_t op = kMaxOpcode + 1; op < 64; ++op) {
    EXPECT_FALSE(decode(op << 26).has_value()) << op;
  }
}

TEST(Isa, ExhaustiveRoundTripOverRandomValidInstructions) {
  Rng rng(123);
  for (int t = 0; t < 5000; ++t) {
    const auto op = static_cast<Opcode>(rng.next_below(kMaxOpcode + 1));
    Instruction inst;
    inst.op = op;
    inst.rd = static_cast<std::uint8_t>(rng.next_below(16));
    inst.ra = static_cast<std::uint8_t>(rng.next_below(16));
    inst.rb = static_cast<std::uint8_t>(rng.next_below(16));
    // Draw an immediate valid for the format.
    switch (op) {
      case Opcode::kNop:
      case Opcode::kHalt:
        inst.rd = inst.ra = inst.rb = 0;
        break;
      case Opcode::kAndi:
      case Opcode::kOri:
      case Opcode::kXori:
        inst.imm = static_cast<std::int32_t>(rng.next_below(1 << 14));
        inst.rb = 0;
        break;
      case Opcode::kSlli:
      case Opcode::kSrli:
      case Opcode::kSrai:
        inst.imm = static_cast<std::int32_t>(rng.next_below(32));
        inst.rb = 0;
        break;
      case Opcode::kLui:
        inst.imm = static_cast<std::int32_t>(rng.next_below(1 << 18));
        inst.ra = inst.rb = 0;
        break;
      case Opcode::kJal:
        inst.imm = static_cast<std::int32_t>(rng.next_range(-(1 << 21), (1 << 21) - 1));
        inst.ra = inst.rb = 0;
        break;
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu:
        inst.imm = static_cast<std::int32_t>(rng.next_range(-8192, 8191));
        inst.rd = 0;
        break;
      default:
        if (op >= Opcode::kAdd && op <= Opcode::kMul) {
          inst.imm = 0;
        } else {
          inst.imm = static_cast<std::int32_t>(rng.next_range(-8192, 8191));
          inst.rb = 0;
        }
        break;
    }
    const auto d = decode(encode(inst));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, inst) << std::string(mnemonic(op));
  }
}

TEST(Isa, InstructionClasses) {
  EXPECT_TRUE(is_store(Opcode::kSw));
  EXPECT_TRUE(is_store(Opcode::kSb));
  EXPECT_FALSE(is_store(Opcode::kLw));
  EXPECT_TRUE(is_load(Opcode::kLbu));
  EXPECT_FALSE(is_load(Opcode::kSw));
  EXPECT_TRUE(is_cond_branch(Opcode::kBgeu));
  EXPECT_FALSE(is_cond_branch(Opcode::kJal));
  EXPECT_TRUE(is_jump(Opcode::kJalr));
  EXPECT_TRUE(is_control(Opcode::kHalt));
  EXPECT_FALSE(is_control(Opcode::kAdd));
  EXPECT_TRUE(writes_rd(Opcode::kAdd));
  EXPECT_TRUE(writes_rd(Opcode::kJal));
  EXPECT_FALSE(writes_rd(Opcode::kSw));
  EXPECT_FALSE(writes_rd(Opcode::kBeq));
  EXPECT_FALSE(writes_rd(Opcode::kNop));
}

TEST(Isa, RegisterNames) {
  EXPECT_EQ(reg_name(0), "r0");
  EXPECT_EQ(reg_name(13), "r13");
  EXPECT_EQ(reg_name(14), "sp");
  EXPECT_EQ(reg_name(15), "lr");
}

TEST(Disasm, BasicForms) {
  EXPECT_EQ(disassemble(make(Opcode::kAdd, 1, 2, 3)), "add r1, r2, r3");
  EXPECT_EQ(disassemble(make(Opcode::kAddi, 1, 0, 0, -5)), "addi r1, r0, -5");
  EXPECT_EQ(disassemble(make(Opcode::kLw, 2, 14, 0, 8)), "lw r2, 8(sp)");
  EXPECT_EQ(disassemble(make(Opcode::kSw, 2, 14, 0, -8)), "sw r2, -8(sp)");
  EXPECT_EQ(disassemble(make(Opcode::kHalt)), "halt");
}

TEST(Disasm, BranchTargetsUseAddress) {
  // beq at 0x100 with offset +4 words -> target 0x110.
  const std::string s = disassemble(make(Opcode::kBeq, 0, 1, 2, 4), 0x100);
  EXPECT_NE(s.find("0x00000110"), std::string::npos) << s;
}

TEST(Disasm, UndecodableWordPrintsRaw) {
  const std::string s = disassemble_word(0xFC000000u, 0);
  EXPECT_NE(s.find(".word"), std::string::npos);
}

// ---- the table-driven decoder against the switch it replaced ---------------

/// The decoder as it was before the format table: a per-format switch.
/// Kept here verbatim as the oracle for isa::decode.
std::optional<Instruction> switch_decode(std::uint32_t word) {
  enum class Format { kNone, kR, kI, kIu, kShift, kStore, kBranch, kJal, kJalr, kLui };
  const auto format_of = [](Opcode op) {
    switch (op) {
      case Opcode::kNop:
      case Opcode::kHalt:
        return Format::kNone;
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kSll:
      case Opcode::kSrl:
      case Opcode::kSra:
      case Opcode::kSlt:
      case Opcode::kSltu:
      case Opcode::kMul:
        return Format::kR;
      case Opcode::kAddi:
      case Opcode::kSlti:
      case Opcode::kSltiu:
      case Opcode::kLw:
      case Opcode::kLh:
      case Opcode::kLhu:
      case Opcode::kLb:
      case Opcode::kLbu:
        return Format::kI;
      case Opcode::kAndi:
      case Opcode::kOri:
      case Opcode::kXori:
        return Format::kIu;
      case Opcode::kSlli:
      case Opcode::kSrli:
      case Opcode::kSrai:
        return Format::kShift;
      case Opcode::kLui:
        return Format::kLui;
      case Opcode::kSw:
      case Opcode::kSh:
      case Opcode::kSb:
        return Format::kStore;
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu:
        return Format::kBranch;
      case Opcode::kJal:
        return Format::kJal;
      case Opcode::kJalr:
        return Format::kJalr;
    }
    return Format::kNone;
  };
  const auto bits = [](std::uint32_t x, unsigned lo, unsigned width) {
    return (x >> lo) & ((1u << width) - 1);
  };
  const auto sign_extend = [](std::uint32_t x, unsigned width) {
    const std::uint32_t m = 1u << (width - 1);
    return static_cast<std::int32_t>((x ^ m) - m);
  };
  const std::uint32_t opbits = bits(word, 26, 6);
  if (opbits > kMaxOpcode) return std::nullopt;
  Instruction inst;
  inst.op = static_cast<Opcode>(opbits);
  switch (format_of(inst.op)) {
    case Format::kNone:
      break;
    case Format::kR:
      inst.rd = static_cast<std::uint8_t>(bits(word, 22, 4));
      inst.ra = static_cast<std::uint8_t>(bits(word, 18, 4));
      inst.rb = static_cast<std::uint8_t>(bits(word, 14, 4));
      break;
    case Format::kI:
    case Format::kJalr:
      inst.rd = static_cast<std::uint8_t>(bits(word, 22, 4));
      inst.ra = static_cast<std::uint8_t>(bits(word, 18, 4));
      inst.imm = sign_extend(bits(word, 0, 14), 14);
      break;
    case Format::kIu:
    case Format::kShift:
      inst.rd = static_cast<std::uint8_t>(bits(word, 22, 4));
      inst.ra = static_cast<std::uint8_t>(bits(word, 18, 4));
      inst.imm = static_cast<std::int32_t>(bits(word, 0, 14));
      break;
    case Format::kLui:
      inst.rd = static_cast<std::uint8_t>(bits(word, 22, 4));
      inst.imm = static_cast<std::int32_t>(bits(word, 0, 18));
      break;
    case Format::kStore:
      inst.rd = static_cast<std::uint8_t>(bits(word, 22, 4));
      inst.ra = static_cast<std::uint8_t>(bits(word, 18, 4));
      inst.imm = sign_extend(bits(word, 0, 14), 14);
      break;
    case Format::kBranch:
      inst.ra = static_cast<std::uint8_t>(bits(word, 22, 4));
      inst.rb = static_cast<std::uint8_t>(bits(word, 18, 4));
      inst.imm = sign_extend(bits(word, 0, 14), 14);
      break;
    case Format::kJal:
      inst.rd = static_cast<std::uint8_t>(bits(word, 22, 4));
      inst.imm = sign_extend(bits(word, 0, 22), 22);
      break;
  }
  return inst;
}

TEST(Isa, TableDecodeEqualsTheSwitchDecoder) {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  const auto check = [&](std::uint32_t word) {
    ++checked;
    if (decode(word) != switch_decode(word) && ++mismatches <= 5)
      ADD_FAILURE() << std::hex << "word 0x" << word;
  };
  // Every opcode value x every value of the three register fields (which
  // are also the top bits of the 18- and 22-bit immediates) x the 14-bit
  // immediate's boundaries.
  for (std::uint32_t op = 0; op < 64; ++op)
    for (std::uint32_t regs = 0; regs < (1u << 12); ++regs)
      for (const std::uint32_t imm : {0x0000u, 0x0001u, 0x1FFFu, 0x2000u,
                                      0x2001u, 0x3FFEu, 0x3FFFu})
        check(op << 26 | regs << 14 | imm);
  // Seeded random words.
  Rng rng(2016);
  for (int i = 0; i < 1'000'000; ++i) check(rng.next_u32());
  EXPECT_EQ(mismatches, 0u) << "of " << checked << " words";
}

}  // namespace
}  // namespace sofia::isa
