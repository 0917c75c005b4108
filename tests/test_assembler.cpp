#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "assembler/link.hpp"
#include "assembler/program.hpp"
#include "isa/isa.hpp"
#include "support/error.hpp"
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
