#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "assembler/link.hpp"
#include "assembler/program.hpp"
#include "driver/sweep.hpp"
#include "isa/isa.hpp"
#include "random_program.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/hex.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace sofia::assembler {
namespace {

using isa::Opcode;

TEST(Assembler, MinimalProgram) {
  const auto prog = assemble("main:\n  halt\n");
  ASSERT_EQ(prog.text.size(), 1u);
  EXPECT_EQ(prog.text[0].inst.op, Opcode::kHalt);
  EXPECT_EQ(prog.text_labels.at("main"), 0u);
}

TEST(Assembler, CommentsAndBlankLines) {
  const auto prog = assemble(R"(
; full line comment
# another comment style
main:          ; trailing comment
  addi r1, r0, 5   # trailing
  halt
)");
  ASSERT_EQ(prog.text.size(), 2u);
  EXPECT_EQ(prog.text[0].inst.imm, 5);
}

TEST(Assembler, RTypeOperands) {
  const auto prog = assemble("main:\n add r3, r4, r5\n sub r1, r2, r3\n halt\n");
  EXPECT_EQ(prog.text[0].inst.op, Opcode::kAdd);
  EXPECT_EQ(prog.text[0].inst.rd, 3);
  EXPECT_EQ(prog.text[0].inst.ra, 4);
  EXPECT_EQ(prog.text[0].inst.rb, 5);
}

TEST(Assembler, RegisterAliases) {
  const auto prog = assemble("main:\n add r1, sp, lr\n mv r2, zero\n halt\n");
  EXPECT_EQ(prog.text[0].inst.ra, isa::kRegSp);
  EXPECT_EQ(prog.text[0].inst.rb, isa::kRegLr);
  EXPECT_EQ(prog.text[1].inst.ra, 0);
}

TEST(Assembler, MemoryOperands) {
  const auto prog = assemble("main:\n lw r1, 8(sp)\n sw r1, -4(r2)\n sb r3, 0(r4)\n halt\n");
  EXPECT_EQ(prog.text[0].inst.op, Opcode::kLw);
  EXPECT_EQ(prog.text[0].inst.imm, 8);
  EXPECT_EQ(prog.text[1].inst.imm, -4);
  EXPECT_EQ(prog.text[2].inst.op, Opcode::kSb);
}

TEST(Assembler, MemoryOperandWithoutOffset) {
  const auto prog = assemble("main:\n lw r1, (sp)\n halt\n");
  EXPECT_EQ(prog.text[0].inst.imm, 0);
}

TEST(Assembler, BranchCreatesSymbolicReloc) {
  const auto prog = assemble(R"(
main:
  beq r1, r2, done
  nop
done:
  halt
)");
  EXPECT_EQ(prog.text[0].reloc, RelocKind::kBranch);
  EXPECT_EQ(prog.text[0].target, "done");
}

TEST(Assembler, PseudoBranches) {
  const auto prog = assemble(R"(
main:
  beqz r1, m
  bnez r2, m
  bgez r3, m
  bltz r4, m
  bgtz r5, m
  blez r6, m
  ble r1, r2, m
  bgt r3, r4, m
  bleu r5, r6, m
  bgtu r7, r8, m
m: halt
)");
  // beqz r1 -> beq r1, r0
  EXPECT_EQ(prog.text[0].inst.op, Opcode::kBeq);
  EXPECT_EQ(prog.text[0].inst.ra, 1);
  EXPECT_EQ(prog.text[0].inst.rb, 0);
  // bgtz r5 -> blt r0, r5
  EXPECT_EQ(prog.text[4].inst.op, Opcode::kBlt);
  EXPECT_EQ(prog.text[4].inst.ra, 0);
  EXPECT_EQ(prog.text[4].inst.rb, 5);
  // ble r1, r2 -> bge r2, r1
  EXPECT_EQ(prog.text[6].inst.op, Opcode::kBge);
  EXPECT_EQ(prog.text[6].inst.ra, 2);
  EXPECT_EQ(prog.text[6].inst.rb, 1);
  // bgtu r7, r8 -> bltu r8, r7
  EXPECT_EQ(prog.text[9].inst.op, Opcode::kBltu);
  EXPECT_EQ(prog.text[9].inst.ra, 8);
  EXPECT_EQ(prog.text[9].inst.rb, 7);
}

TEST(Assembler, LiSmallExpandsToAddi) {
  const auto prog = assemble("main:\n li r1, -100\n halt\n");
  ASSERT_EQ(prog.text.size(), 2u);
  EXPECT_EQ(prog.text[0].inst.op, Opcode::kAddi);
  EXPECT_EQ(prog.text[0].inst.imm, -100);
}

TEST(Assembler, LiLargeExpandsToLuiOri) {
  const auto prog = assemble("main:\n li r1, 0x12345678\n halt\n");
  ASSERT_EQ(prog.text.size(), 3u);
  EXPECT_EQ(prog.text[0].inst.op, Opcode::kLui);
  EXPECT_EQ(prog.text[0].inst.imm, 0x12345678 >> 14);
  EXPECT_EQ(prog.text[1].inst.op, Opcode::kOri);
  EXPECT_EQ(prog.text[1].inst.imm, 0x12345678 & 0x3FFF);
  // Reconstruction check.
  const std::uint32_t v = (static_cast<std::uint32_t>(prog.text[0].inst.imm) << 14) |
                          static_cast<std::uint32_t>(prog.text[1].inst.imm);
  EXPECT_EQ(v, 0x12345678u);
}

TEST(Assembler, LiAlignedLargeSkipsOri) {
  const auto prog = assemble("main:\n li r1, 0x40000\n halt\n");
  ASSERT_EQ(prog.text.size(), 2u);
  EXPECT_EQ(prog.text[0].inst.op, Opcode::kLui);
}

TEST(Assembler, LiNegativeRoundTrips) {
  const auto prog = assemble("main:\n li r1, -559038737\n halt\n");  // 0xDEADBEEF
  const std::uint32_t v = (static_cast<std::uint32_t>(prog.text[0].inst.imm) << 14) |
                          static_cast<std::uint32_t>(prog.text[1].inst.imm);
  EXPECT_EQ(v, 0xDEADBEEFu);
}

TEST(Assembler, LaCreatesHiLoRelocs) {
  const auto prog = assemble(R"(
main:
  la r2, table
  halt
.data
table: .word 1
)");
  ASSERT_EQ(prog.text.size(), 3u);
  EXPECT_EQ(prog.text[0].reloc, RelocKind::kHi18);
  EXPECT_EQ(prog.text[1].reloc, RelocKind::kLo14);
  EXPECT_EQ(prog.text[0].target, "table");
}

TEST(Assembler, CallRetJumpPseudos) {
  const auto prog = assemble(R"(
main:
  call f
  j end
f:
  ret
end:
  halt
)");
  EXPECT_EQ(prog.text[0].inst.op, Opcode::kJal);
  EXPECT_EQ(prog.text[0].inst.rd, isa::kRegLr);
  EXPECT_EQ(prog.text[1].inst.op, Opcode::kJal);
  EXPECT_EQ(prog.text[1].inst.rd, 0);
  EXPECT_EQ(prog.text[2].inst.op, Opcode::kJalr);
  EXPECT_EQ(prog.text[2].inst.ra, isa::kRegLr);
}

TEST(Assembler, TargetsAnnotationAttachesToNextJalr) {
  const auto prog = assemble(R"(
main:
  la r4, f
  .targets f, g
  jalr lr, r4
  halt
f: ret
g: ret
)");
  const auto& jalr = prog.text[2];
  ASSERT_EQ(jalr.inst.op, Opcode::kJalr);
  ASSERT_EQ(jalr.indirect_targets.size(), 2u);
  EXPECT_EQ(jalr.indirect_targets[0], "f");
  EXPECT_EQ(jalr.indirect_targets[1], "g");
}

TEST(Assembler, TargetsRejectedWhenNotFollowedByJalr) {
  EXPECT_THROW(assemble("main:\n .targets f\n add r1, r1, r1\n halt\nf: ret\n"),
               AsmError);
}

TEST(Assembler, DataDirectives) {
  const auto prog = assemble(R"(
main: halt
.data
a: .word 0x11223344, -1
b: .half 0x5566
c: .byte 1, 2, 3
d: .space 5
e: .ascii "hi"
f: .asciiz "ok"
)");
  EXPECT_EQ(prog.data_labels.at("a"), 0u);
  EXPECT_EQ(prog.data_labels.at("b"), 8u);
  EXPECT_EQ(prog.data_labels.at("c"), 10u);
  EXPECT_EQ(prog.data_labels.at("d"), 13u);
  EXPECT_EQ(prog.data_labels.at("e"), 18u);
  EXPECT_EQ(prog.data_labels.at("f"), 20u);
  EXPECT_EQ(prog.data.size(), 23u);
  EXPECT_EQ(prog.data[0], 0x44);
  EXPECT_EQ(prog.data[3], 0x11);
  EXPECT_EQ(prog.data[4], 0xFF);  // -1
  EXPECT_EQ(prog.data[18], 'h');
  EXPECT_EQ(prog.data[22], 0);  // asciiz terminator
}

TEST(Assembler, AlignDirective) {
  const auto prog = assemble(R"(
main: halt
.data
x: .byte 1
.align 4
y: .word 2
)");
  EXPECT_EQ(prog.data_labels.at("y"), 4u);
  // Bounded like .space (2^24 bytes): a 2^40 boundary once padded the data
  // section toward 1 TiB.
  EXPECT_THROW(assemble("main: halt\n.data\nx: .byte 1\n.align 33554432\n"),
               AsmError);
  EXPECT_THROW(
      assemble("main: halt\n.data\nx: .byte 1\n.align 1099511627776\n"),
      AsmError);
}

TEST(Assembler, DataSectionIsCappedAt16MiB) {
  // Each .space is bounded, but 70 of them at the bound once asked for
  // about 1.2 GB from 1138 bytes of source. The whole section is capped
  // now, and the directive that would cross the cap is the one named.
  std::string hostile = "main: halt\n.data\n";
  for (int i = 0; i < 70; ++i) hostile += ".space 16777216\n";
  try {
    assemble(hostile);
    FAIL() << "expected AsmError";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 4);  // the second .space
  }
  // Exactly at the cap is accepted; one byte more, by any directive, is not.
  const std::string full = "main: halt\n.data\nx: .space 16777216\n";
  EXPECT_EQ(assemble(full).data.size(), 16777216u);
  for (const char* more : {".byte 1", ".half 1", ".word 1", ".word main",
                           ".space 1", ".ascii \"a\"", ".asciiz \"\""}) {
    try {
      assemble(full + more + "\n");
      ADD_FAILURE() << more << " past the cap was accepted";
    } catch (const AsmError& e) {
      EXPECT_EQ(e.line(), 4) << more;
    }
  }
  // Padding to 4 lands exactly on the cap; to 2^25, past it.
  EXPECT_EQ(assemble("main: halt\n.data\nx: .space 16777215\n.align 4\n")
                .data.size(),
            16777216u);
  try {
    assemble("main: halt\n.data\nx: .byte 1\n.align 33554432\n");
    ADD_FAILURE() << ".align past the cap was accepted";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 4);
  }
  // The built-in workloads at their default sizes stay far below the cap.
  std::size_t largest = 0;
  for (const auto& spec : workloads::all_workloads())
    largest = std::max(
        largest, assemble(spec.source(1, spec.default_size)).data.size());
  EXPECT_LT(largest, 16777216u / 64) << largest;
}

TEST(Assembler, WordWithLabelCreatesDataReloc) {
  const auto prog = assemble(R"(
main: halt
.data
tbl: .word main, tbl
)");
  ASSERT_EQ(prog.data_relocs.size(), 2u);
  EXPECT_EQ(prog.data_relocs[0].symbol, "main");
  EXPECT_EQ(prog.data_relocs[1].offset, 4u);
}

TEST(Assembler, CharLiterals) {
  const auto prog = assemble("main:\n li r1, 'A'\n li r2, '\\n'\n halt\n");
  EXPECT_EQ(prog.text[0].inst.imm, 65);
  EXPECT_EQ(prog.text[1].inst.imm, 10);
}

TEST(Assembler, EntryDirective) {
  const auto prog = assemble(".entry start\nstart: halt\n");
  EXPECT_EQ(prog.entry, "start");
}

TEST(Assembler, Errors) {
  EXPECT_THROW(assemble("main:\n bogus r1, r2\n"), AsmError);
  EXPECT_THROW(assemble("main:\n addi r1, r0, 99999\n halt\n"), AsmError);
  EXPECT_THROW(assemble("main:\n addi r99, r0, 1\n halt\n"), AsmError);
  EXPECT_THROW(assemble("main:\n beq r1, r2, nowhere\n halt\n"), AsmError);
  EXPECT_THROW(assemble("x: halt\n"), AsmError);               // no entry 'main'
  EXPECT_THROW(assemble("main: halt\nmain: halt\n"), AsmError);  // dup label
  EXPECT_THROW(assemble("main:\n .word 1\n halt\n"), AsmError);  // .word in .text
  EXPECT_THROW(assemble("main: halt\n.data\nx: .align 3\n"), AsmError);
}

TEST(Assembler, ErrorCarriesLineNumber) {
  try {
    assemble("main:\n nop\n bogus\n halt\n");
    FAIL() << "expected AsmError";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(Assembler, DuplicateLabelAcrossSectionsRejected) {
  EXPECT_THROW(assemble("main: halt\n.data\nmain: .word 1\n"), AsmError);
}

// ---------------------------------------------------------------------------
// Pinned assembler output and diagnostics.
// ---------------------------------------------------------------------------

/// Every literal form the lexer accepts: hex in both cases, octal, explicit
/// signs, the extremes of the 32-bit range, and each char and string escape.
constexpr char kLiteralEdges[] = R"(
; literal edge cases
main:
  addi r1, r0, 0x1F        # hex
  addi r2, r0, -0x10
  addi r3, r0, 010         ; octal
  addi r4, r0, -010
  addi r5, r0, +7
  addi r6, r0, 00
  andi r7, r7, 0X3fff
  li r8, 0xFFFFFFFF
  li r9, -2147483648
  li r10, 4294967295
  li r11, +0x7FFFFFFF
  li r12, 'A'
  li r13, '\n'
  li r14, '\t'
  li r15, '\0'
  li r1, '\\'
  li r2, '\''
  li r3, ' '
  lw r4, -4(sp)
  sw r4, +8(sp)
  lb r5, 0x10(sp)
  lbu r5, (sp)
  lui r6, 0x3FFFF
  beq r1, r2, +3
  bne r1, r2, -1
  jal r0, -2
  jalr r0, r1, 0
end: halt
.data
w: .word 0x7FFFFFFF, -1, 017, +5, 0, -2147483648, 4294967295, w, end
h: .half 0xFFFF, -32768, 65535, 0x7fff
b: .byte 255, -128, 0x7f, 'z', '\n', -1
s: .ascii "a\tb\n\"q\"\\"
z: .asciiz "\0x"
.space 3
.align 8
)";

/// Everything assemble() produces, one line per fact (labels sorted).
std::string render_program(const Program& prog) {
  std::string out = "entry ";
  out += prog.entry;
  out += '\n';
  for (const auto& si : prog.text) {
    out += "inst " + std::to_string(static_cast<int>(si.inst.op));
    for (const std::int64_t f :
         {std::int64_t{si.inst.rd}, std::int64_t{si.inst.ra},
          std::int64_t{si.inst.rb}, std::int64_t{si.inst.imm},
          std::int64_t{static_cast<int>(si.reloc)}, std::int64_t{si.line}}) {
      out += ' ';
      out += std::to_string(f);
    }
    out += ' ';
    out += si.target;
    for (const auto& t : si.indirect_targets) {
      out += " @";
      out += t;
    }
    out += '\n';
  }
  for (const auto* table : {&prog.text_labels, &prog.data_labels}) {
    const std::map<std::string, std::uint32_t> sorted(table->begin(),
                                                      table->end());
    for (const auto& [name, value] : sorted) {
      out += "label ";
      out += name;
      out += ' ';
      out += std::to_string(value);
      out += '\n';
    }
    out += "--\n";
  }
  for (const auto& r : prog.data_relocs) {
    out += "reloc ";
    out += std::to_string(r.offset);
    out += ' ';
    out += r.symbol;
    out += '\n';
  }
  out += "data";
  for (const std::uint8_t byte : prog.data) {
    out += ' ';
    out += std::to_string(byte);
  }
  out += '\n';
  return out;
}

// Every source the lint prefilter's scheme matrix assembles (88 jobs with
// per-job seeds), six random programs and the literal edge cases, hashed
// through render_program. A faster lexer or parser must leave it untouched.
TEST(Assembler, MatrixSourcesAssembleToThePinnedDigest) {
  std::vector<std::pair<std::string, std::string>> sources;
  auto spec = driver::matrix("scheme");
  spec.vary_seed = true;
  for (const auto& job : driver::expand_jobs(spec))
    sources.emplace_back(
        "job " + std::to_string(job.index),
        workloads::workload(job.workload).source(job.seed, job.size));
  Rng rng(16);
  for (int trial = 0; trial < 6; ++trial)
    sources.emplace_back("random " + std::to_string(trial),
                         test::random_program(rng));
  sources.emplace_back("literals", kLiteralEdges);
  ASSERT_EQ(sources.size(), 88u + 6u + 1u);

  support::Sha256 hasher;
  for (const auto& [label, source] : sources) {
    hasher.update(label + '\n');
    hasher.update(render_program(assemble(source)));
  }
  EXPECT_EQ(support::to_hex(hasher.digest()),
            "c461efd4ac35ef851cf2890d6b04f54a0a48ba3cff53360c60a6c8b50f3ffce2");
}

TEST(Assembler, LiteralEdgeCasesDecodeAsStrtoll) {
  const auto prog = assemble(kLiteralEdges);
  const auto imm = [&](std::size_t i) { return prog.text.at(i).inst.imm; };
  EXPECT_EQ(imm(0), 0x1F);
  EXPECT_EQ(imm(1), -16);
  EXPECT_EQ(imm(2), 8);   // octal
  EXPECT_EQ(imm(3), -8);
  EXPECT_EQ(imm(4), 7);
  EXPECT_EQ(imm(6), 0x3FFF);
  const std::vector<std::uint8_t> bytes(prog.data.begin() + 44,
                                        prog.data.begin() + 50);
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{0xFF, 0x80, 0x7F, 'z', '\n',
                                              0xFF}));
}

// The exact diagnostic for each kind of malformed line.
TEST(Assembler, ErrorMessagesArePinned) {
  const std::pair<const char*, const char*> cases[] = {
      {"main:\n bogus r1, r2\n", "asm:2: unknown mnemonic 'bogus'"},
      {"main:\n addi r1, r0, 99999\n",
       "asm:2: encode addi: imm14 out of range"},
      {"main:\n addi r99, r0, 1\n", "asm:2: expected register, got 'r99'"},
      {"main:\n addi r1, r0, 12z\n", "asm:2: bad number '12z'"},
      {"main:\n addi r1, r0, 09\n", "asm:2: bad number '09'"},
      {"main:\n addi r1, r0, -\n", "asm:2: bad number '-'"},
      {"main:\n add r1 r2, r3\n", "asm:2: expected ','"},
      {"main:\n add r1, r2,\n", "asm:2: unexpected end of line"},
      {"main:\n halt $\n", "asm:2: unexpected character '$'"},
      {".data\n .ascii \"abc\n", "asm:2: unterminated string"},
      {".data\n .ascii \"a\\q\"\n", "asm:2: bad string escape"},
      {"main:\n li r1, '\\q'\n", "asm:2: bad char escape"},
      {"main:\n li r1, 'ab'\n", "asm:2: unterminated char literal"},
      {"main:\n .word 1\n", "asm:2: data directive outside .data"},
      {"main:\n halt r1\n", "asm:2: trailing tokens on line"},
      {"main:\n beq r1, r2, nowhere\n", "asm:2: undefined label 'nowhere'"},
      {"main:\n lw r1, 4 r2\n", "asm:2: expected '('"},
      {"main:\n 5\n", "asm:2: expected mnemonic or directive"},
      {"main:\n.data\n .bogus\n", "asm:3: unknown directive '.bogus'"},
      {".data\n .half x\n", "asm:2: label value requires .word"},
  };
  for (const auto& [source, message] : cases) {
    try {
      assemble(source);
      ADD_FAILURE() << "no error for: " << source;
    } catch (const AsmError& e) {
      EXPECT_EQ(std::string(e.what()), message) << source;
    }
  }
}

// A literal must fit 32 bits, an instruction immediate its signed 32-bit
// field, and a .byte or .half value its field signed or unsigned; nothing
// wraps silently.
TEST(Assembler, OutOfRangeLiteralsAreRejected) {
  const std::pair<const char*, const char*> cases[] = {
      {"main:\n addi r1, r0, 4294967295\n",
       "asm:2: immediate 4294967295 out of range"},
      {"main:\n addi r1, r0, 0x100000000\n",
       "asm:2: number '0x100000000' does not fit 32 bits"},
      {"main:\n li r1, 99999999999999999999\n",
       "asm:2: number '99999999999999999999' does not fit 32 bits"},
      {"main:\n li r1, -2147483649\n",
       "asm:2: number '-2147483649' does not fit 32 bits"},
      {"main:\n beq r1, r2, 4294967295\n",
       "asm:2: immediate 4294967295 out of range"},
      {"main:\n jal r0, 0x80000000\n",
       "asm:2: immediate 2147483648 out of range"},
      {"main:\n jalr r0, r1, 4294967292\n",
       "asm:2: immediate 4294967292 out of range"},
      {".data\n .byte 300\n", "asm:2: value 300 does not fit .byte"},
      {".data\n .byte -129\n", "asm:2: value -129 does not fit .byte"},
      {".data\n .half 65536\n", "asm:2: value 65536 does not fit .half"},
      {".data\n .half -32769\n", "asm:2: value -32769 does not fit .half"},
      {".data\n .word 4294967296\n",
       "asm:2: number '4294967296' does not fit 32 bits"},
  };
  for (const auto& [source, message] : cases) {
    try {
      assemble(source);
      ADD_FAILURE() << "no error for: " << source;
    } catch (const AsmError& e) {
      EXPECT_EQ(std::string(e.what()), message) << source;
    }
  }
  // The edges of each range still assemble.
  const auto prog = assemble(
      "main:\n li r1, 4294967295\n li r2, -2147483648\n halt\n.data\n"
      " .byte 255, -128\n .half 65535, -32768\n"
      " .word 4294967295, -2147483648\n");
  EXPECT_EQ(prog.data,
            (std::vector<std::uint8_t>{0xFF, 0x80, 0xFF, 0xFF, 0x00, 0x80, 0xFF,
                                       0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00,
                                       0x80}));
}

// ---------------------------------------------------------------------------
// Vanilla linking.
// ---------------------------------------------------------------------------

TEST(LinkVanilla, SequentialLayoutAndEntry) {
  const auto prog = assemble(R"(
main:
  nop
  nop
  halt
)");
  const auto img = link_vanilla(prog);
  EXPECT_EQ(img.text.size(), 3u);
  EXPECT_EQ(img.entry, img.text_base);
  EXPECT_FALSE(img.sofia);
}

TEST(LinkVanilla, BranchOffsetsResolved) {
  const auto prog = assemble(R"(
main:
  beq r0, r0, fwd
  nop
fwd:
  bne r1, r2, main
  halt
)");
  const auto img = link_vanilla(prog);
  const auto b0 = isa::decode(img.text[0]);
  ASSERT_TRUE(b0.has_value());
  EXPECT_EQ(b0->imm, 2);  // main+0 -> fwd at index 2
  const auto b2 = isa::decode(img.text[2]);
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(b2->imm, -2);  // fwd -> main
}

TEST(LinkVanilla, CallOffsetsResolved) {
  const auto prog = assemble(R"(
main:
  call f
  halt
f:
  ret
)");
  const auto img = link_vanilla(prog);
  const auto j = isa::decode(img.text[0]);
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->op, Opcode::kJal);
  EXPECT_EQ(j->imm, 2);
}

TEST(LinkVanilla, LaResolvesDataAddress) {
  MemoryLayout layout;
  layout.data_base = 0x00100000;
  const auto prog = assemble(R"(
main:
  la r1, buf
  halt
.data
pad: .space 12
buf: .word 0
)");
  const auto img = link_vanilla(prog, layout);
  const auto hi = isa::decode(img.text[0]);
  const auto lo = isa::decode(img.text[1]);
  ASSERT_TRUE(hi.has_value() && lo.has_value());
  const std::uint32_t addr = (static_cast<std::uint32_t>(hi->imm) << 14) |
                             static_cast<std::uint32_t>(lo->imm);
  EXPECT_EQ(addr, 0x0010000Cu);
}

TEST(LinkVanilla, LaResolvesTextAddress) {
  const auto prog = assemble(R"(
main:
  la r1, f
  halt
f:
  ret
)");
  const auto img = link_vanilla(prog);
  const auto hi = isa::decode(img.text[0]);
  const auto lo = isa::decode(img.text[1]);
  const std::uint32_t addr = (static_cast<std::uint32_t>(hi->imm) << 14) |
                             static_cast<std::uint32_t>(lo->imm);
  EXPECT_EQ(addr, img.text_base + 4 * 3);
}

TEST(LinkVanilla, DataRelocsPatched) {
  const auto prog = assemble(R"(
main: halt
.data
ptr: .word target
target: .word 99
)");
  const auto img = link_vanilla(prog);
  const std::uint32_t patched = static_cast<std::uint32_t>(img.data[0]) |
                                (static_cast<std::uint32_t>(img.data[1]) << 8) |
                                (static_cast<std::uint32_t>(img.data[2]) << 16) |
                                (static_cast<std::uint32_t>(img.data[3]) << 24);
  EXPECT_EQ(patched, img.data_base + 4);
}

TEST(LinkVanilla, ImageTextMatchesEncodedInstructions) {
  const auto prog = assemble("main:\n addi r1, r0, 7\n halt\n");
  const auto img = link_vanilla(prog);
  EXPECT_EQ(img.text[0], isa::encode(prog.text[0].inst));
}

}  // namespace
}  // namespace sofia::assembler
