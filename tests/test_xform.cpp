#include <gtest/gtest.h>

#include "assembler/program.hpp"
#include "cfg/cfg.hpp"
#include "crypto/cbc_mac.hpp"
#include "crypto/ctr.hpp"
#include "pipeline/pipeline.hpp"
#include "sim_test_util.hpp"
#include "support/error.hpp"
#include "xform/transform.hpp"

namespace sofia::xform {
namespace {

using test::test_keys;

TransformResult tx(const std::string& src, Options opts = {}) {
  return transform(assembler::assemble(src), test_keys(), opts);
}

TEST(BlockPolicy, Defaults) {
  const auto p = BlockPolicy::paper_default();
  EXPECT_EQ(p.words_per_block, 8u);
  EXPECT_EQ(p.exec_insts(), 6u);
  EXPECT_EQ(p.mux_insts(), 5u);
  EXPECT_EQ(p.store_min_word, 4u);
  EXPECT_NO_THROW(p.validate());
  const auto s = BlockPolicy::small_unrestricted();
  EXPECT_EQ(s.exec_insts(), 4u);
  EXPECT_EQ(s.store_min_word, 0u);
}

TEST(BlockPolicy, Validation) {
  EXPECT_THROW((BlockPolicy{4, 0}).validate(), TransformError);
  EXPECT_THROW((BlockPolicy{7, 0}).validate(), TransformError);
  EXPECT_THROW((BlockPolicy{8, 8}).validate(), TransformError);
}

TEST(Layout, StraightLinePacksIntoExecBlocks) {
  const auto result = tx(R"(
main:
  addi r1, r0, 1
  addi r2, r0, 2
  addi r3, r0, 3
  addi r4, r0, 4
  addi r5, r0, 5
  halt
)");
  // Six instructions, the last is control -> exactly one 8-word exec block.
  EXPECT_EQ(result.layout.blocks().size(), 1u);
  EXPECT_EQ(result.layout.blocks()[0].kind, BlockKind::kExec);
  EXPECT_EQ(result.stats.text_bytes_out, 32u);
}

TEST(Layout, ControlAlwaysAtExitSlot) {
  const auto result = tx(R"(
main:
  addi r1, r0, 1
  halt
)");
  const auto& block = result.layout.blocks()[0];
  EXPECT_EQ(block.insts.back().inst.op, isa::Opcode::kHalt);
  // Padding NOPs between.
  EXPECT_EQ(result.stats.layout.pad_nops, 4u);
}

TEST(Layout, StoreRestrictionPadsToWord4) {
  const auto result = tx(R"(
main:
  la r1, buf
  sw r0, 0(r1)
  halt
.data
buf: .word 0
)");
  const auto& block = result.layout.blocks()[0];
  // la = 2 insts (slots 0,1 = words 2,3); store must be at word >= 4 (slot 2).
  EXPECT_EQ(block.insts[2].inst.op, isa::Opcode::kSw);
}

TEST(Layout, StoreFirstGetsLeadingNops) {
  const auto result = tx(R"(
main:
  sw r0, 0(r1)
  halt
)");
  const auto& block = result.layout.blocks()[0];
  EXPECT_EQ(block.insts[0].inst.op, isa::Opcode::kNop);
  EXPECT_EQ(block.insts[1].inst.op, isa::Opcode::kNop);
  EXPECT_EQ(block.insts[2].inst.op, isa::Opcode::kSw);
}

TEST(Layout, UnrestrictedPolicyAllowsEarlyStores) {
  Options opts;
  opts.policy = BlockPolicy::small_unrestricted();
  const auto result = tx(R"(
main:
  sw r0, 0(r1)
  halt
)",
                         opts);
  const auto& block = result.layout.blocks()[0];
  EXPECT_EQ(block.insts[0].inst.op, isa::Opcode::kSw);
}

TEST(Layout, JoinGetsMuxBlock) {
  const auto result = tx(R"(
main:
  beq r1, r2, join
  j join
join:
  halt
)");
  // The join leader must start with a multiplexor block.
  std::uint32_t mux_count = 0;
  for (const auto& b : result.layout.blocks())
    if (b.kind == BlockKind::kMux) ++mux_count;
  EXPECT_GE(mux_count, 1u);
  EXPECT_GE(result.stats.layout.mux_blocks, 1u);
}

TEST(Layout, FourCallersBuildForwardingTree) {
  const auto result = tx(R"(
main:
  call f
  call f
  call f
  call f
  halt
f:
  ret
)");
  // p=5 preds... 4 call sites -> f's entry has 4 preds -> 2 forwarding
  // blocks (p-2) per Fig. 9.
  EXPECT_EQ(result.stats.layout.forward_blocks, 2u);
}

TEST(Layout, TwoCallersNeedNoForwarding) {
  const auto result = tx(R"(
main:
  call f
  call f
  halt
f:
  ret
)");
  EXPECT_EQ(result.stats.layout.forward_blocks, 0u);
  EXPECT_GE(result.stats.layout.mux_blocks, 1u);
}

TEST(Layout, BranchFallIntoJoinCreatesThunk) {
  const auto result = tx(R"(
main:
  beq r1, r2, other
  beq r3, r4, join    ; not-taken side falls into join (a join leader)
join:
  halt
other:
  j join
)");
  EXPECT_GE(result.stats.layout.thunk_blocks, 1u);
}

TEST(Layout, BlockAddressesAreBlockAligned) {
  const auto result = tx(R"(
main:
  call f
  call f
  halt
f:
  addi r1, r1, 1
  ret
)");
  const auto b = result.layout.policy().words_per_block;
  for (const auto& block : result.layout.blocks())
    EXPECT_EQ(block.base_word % b, 0u) << block.id;
}

TEST(Layout, PlacedAddrTracksInstructions) {
  const auto result = tx(R"(
main:
  addi r1, r0, 7
  halt
)");
  // First instruction sits at word 2 (after 2 MAC words).
  EXPECT_EQ(result.layout.placed_addr(0), 8u);
}

TEST(Layout, VerifyInvariantsOnLargerProgram) {
  // A mix of joins, calls, loops, stores; relies on the packer's own
  // verify() plus external invariant checks here.
  const auto result = tx(R"(
main:
  addi r5, r0, 3
loop:
  call f
  addi r5, r5, -1
  bnez r5, loop
  la r1, out
  sw r6, 0(r1)
  halt
f:
  addi r6, r6, 10
  beqz r6, skip
  addi r6, r6, 1
skip:
  ret
.data
out: .word 0
)");
  const auto& policy = result.layout.policy();
  for (const auto& block : result.layout.blocks()) {
    const std::uint32_t cap = block.kind == BlockKind::kExec
                                  ? policy.exec_insts()
                                  : policy.mux_insts();
    ASSERT_EQ(block.insts.size(), cap);
    const std::uint32_t macs = policy.words_per_block - cap;
    for (std::size_t s = 0; s < block.insts.size(); ++s) {
      const auto op = block.insts[s].inst.op;
      if (isa::is_control(op)) {
        EXPECT_EQ(s + 1, block.insts.size());
      }
      if (isa::is_store(op)) {
        EXPECT_GE(macs + s, policy.store_min_word);
      }
    }
  }
}

TEST(Transform, ImageGeometry) {
  const auto result = tx("main:\n addi r1, r0, 1\n halt\n");
  EXPECT_TRUE(result.image.sofia);
  EXPECT_EQ(result.image.text.size() % 8, 0u);
  EXPECT_EQ(result.image.omega, test_keys().omega);
  EXPECT_EQ(result.image.entry, 0u);  // single exec block at text base 0
}

TEST(Transform, CiphertextDiffersFromPlaintext) {
  const auto result = tx("main:\n addi r1, r0, 1\n halt\n");
  const auto plain =
      block_plaintext(result.layout, result.layout.blocks()[0], test_keys());
  ASSERT_EQ(plain.size(), result.image.text.size());
  int same = 0;
  for (std::size_t i = 0; i < plain.size(); ++i)
    same += (plain[i] == result.image.text[i]);
  EXPECT_LE(same, 1);  // 2^-32 per-word collision chance
}

TEST(Transform, MacThenEncryptRoundTrip) {
  // Manually decrypt the single block and re-verify the MAC: the stored
  // tag must match a CBC-MAC over the decrypted instruction words.
  const auto keys = test_keys();
  const auto result = tx("main:\n addi r1, r0, 5\n halt\n");
  const auto& block = result.layout.blocks()[0];
  const auto enc = keys.encryption_cipher();
  std::vector<std::uint32_t> plain(8);
  for (std::uint32_t j = 0; j < 8; ++j) {
    const std::uint32_t prev =
        j == 0 ? block.pred1_word : block.base_word + j - 1;
    plain[j] = result.image.text[j] ^
               crypto::keystream32(*enc, keys.omega, prev, block.base_word + j);
  }
  const auto mac_cipher = keys.exec_mac_cipher();
  const std::uint64_t tag =
      crypto::cbc_mac64(*mac_cipher, std::span(plain).subspan(2));
  EXPECT_EQ(crypto::mac_word1(tag), plain[0]);
  EXPECT_EQ(crypto::mac_word2(tag), plain[1]);
}

TEST(Transform, EntryBlockUsesResetPrev) {
  const auto result = tx("main:\n addi r1, r0, 1\n halt\n");
  EXPECT_EQ(result.layout.blocks()[0].pred1_word, assembler::kResetPrevWord);
  EXPECT_EQ(result.image.entry_prev, assembler::kResetPrevWord);
}

TEST(Transform, MuxEntryAddressesDifferPerPredecessor) {
  const auto result = tx(R"(
main:
  call f
  call f
  halt
f:
  ret
)");
  const auto& norm = result.normalized;
  const std::uint32_t f_entry = norm.text_labels.at("f");
  // The two call instructions must target different entry words.
  std::vector<std::uint32_t> targets;
  for (const auto& block : result.layout.blocks()) {
    for (std::size_t s = 0; s < block.insts.size(); ++s) {
      const auto& pi = block.insts[s];
      if (pi.inst.op == isa::Opcode::kJal && pi.target_leader == f_entry) {
        const std::uint32_t macs = result.layout.policy().words_per_block -
                                   static_cast<std::uint32_t>(block.insts.size());
        const std::uint32_t word =
            block.base_word + macs + static_cast<std::uint32_t>(s);
        targets.push_back(word + static_cast<std::uint32_t>(pi.inst.imm));
      }
    }
  }
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_NE(targets[0], targets[1]);
  // And the two targets are within the same mux block at offsets 1 and 2.
  const std::uint32_t b = result.layout.policy().words_per_block;
  EXPECT_EQ(targets[0] / b, targets[1] / b);
  const std::uint32_t off0 = targets[0] % b;
  const std::uint32_t off1 = targets[1] % b;
  EXPECT_TRUE((off0 == 1 && off1 == 2) || (off0 == 2 && off1 == 1));
}

TEST(Transform, CodeSizeExpansionInPaperBallpark) {
  // A call-heavy program similar in flavor to transformed ADPCM: the paper
  // reports 2.41x text expansion. Accept a broad band.
  const auto result = tx(R"(
main:
  addi r5, r0, 10
loop:
  call work
  addi r5, r5, -1
  bnez r5, loop
  halt
work:
  addi r6, r6, 1
  beqz r6, skip
  addi r6, r6, 2
skip:
  add r7, r6, r5
  ret
)");
  EXPECT_GT(result.stats.expansion(), 1.3);
  EXPECT_LT(result.stats.expansion(), 8.0);
}

TEST(Transform, PerPairFlagPropagates) {
  Options opts;
  opts.granularity = crypto::Granularity::kPerPair;
  const auto result = tx("main:\n addi r1, r0, 1\n halt\n", opts);
  EXPECT_TRUE(result.image.per_pair);
}

TEST(Transform, DataRelocationsResolveToPlacedText) {
  const auto result = tx(R"(
main:
  la r1, tbl
  lw r2, 0(r1)
  halt
f:
  ret
.data
tbl: .word f
)");
  // The .word f slot holds f's placed address, which must point into a
  // block's instruction area (word offset >= 2).
  const std::uint32_t addr = static_cast<std::uint32_t>(result.image.data[0]) |
                             (static_cast<std::uint32_t>(result.image.data[1]) << 8) |
                             (static_cast<std::uint32_t>(result.image.data[2]) << 16) |
                             (static_cast<std::uint32_t>(result.image.data[3]) << 24);
  const std::uint32_t f_index = result.normalized.text_labels.at("f");
  EXPECT_EQ(addr, result.layout.placed_addr(f_index));
}

TEST(Transform, SmallPolicyProducesSmallerBlocks) {
  Options small;
  small.policy = BlockPolicy::small_unrestricted();
  const auto result = tx("main:\n addi r1, r0, 1\n halt\n", small);
  EXPECT_EQ(result.image.text.size() % 6, 0u);
}

TEST(Transform, BranchOffsetOverflowDiagnosed) {
  // A conditional branch reaches +-8K words; blocking stretches distances
  // (8 words per 6 instructions), so a ~7.5K-instruction gap overflows
  // after the transform even though the vanilla link would still fit.
  std::string src = "main:\n  beq r1, r2, far\n";
  for (int i = 0; i < 7500; ++i) src += "  addi r1, r1, 1\n";
  src += "far:\n  halt\n";
  EXPECT_NO_THROW(assembler::link_vanilla(assembler::assemble(src)));
  EXPECT_THROW(tx(src), TransformError);
}

TEST(Transform, JalReachesFarTargets) {
  // jal has 22-bit reach: the same distance is fine for calls/jumps.
  std::string src = "main:\n  j far\n";
  for (int i = 0; i < 7500; ++i) src += "  addi r1, r1, 1\n";
  src += "far:\n  halt\n";
  EXPECT_NO_THROW(tx(src));
}

TEST(Transform, DevirtualizedDispatchRuns) {
  // f and g are reached only through the pointer; devirtualization turns
  // the dispatch into direct call edges to both.
  const auto keys = test_keys();
  const auto result = transform(assembler::assemble(R"(
main:
  la r4, f
  li r1, 1
  .targets f, g
  jalr lr, r4
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
f:
  addi r1, r1, 10
  ret
g:
  addi r1, r1, 20
  ret
)"),
                                keys);
  sim::SimConfig config;
  config.keys = keys;
  const auto run = sim::run_image(result.image, config);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.output, "11\n");
}

// ---------------------------------------------------------------------------
// Dead code: the paper's transformation emits everything it is given.
// ---------------------------------------------------------------------------

constexpr char kDeadCodeProgram[] = R"(
main:
  li r1, 2
  halt
dead:
  addi r2, r2, 1
  addi r2, r2, 2
  addi r2, r2, 3
  addi r2, r2, 4
  addi r2, r2, 5
  j dead
)";

TEST(DeadCode, IsSealedRunsOnBothBackendsAndLintsAsOneWarning) {
  for (const std::string backend : {"cycle", "functional"}) {
    auto profile = pipeline::DeviceProfile::paper_default();
    profile.backend = backend;
    auto p = pipeline::Pipeline::from_source(kDeadCodeProgram, profile);

    // The dead run is laid out: `addi r2, r2, 1` .. `j dead` (source
    // indices 2..7) fill one execution block of their own.
    const TransformResult& hard = p.hardened();
    const BlockLayout& layout = hard.layout;
    ASSERT_EQ(layout.stats().source_insts, 8u);
    const std::uint32_t dead_block = layout.block_base_addr(2);
    for (std::uint32_t i = 3; i < 8; ++i)
      EXPECT_EQ(layout.block_base_addr(i), dead_block) << i;
    EXPECT_NE(layout.block_base_addr(0), dead_block);
    EXPECT_EQ(hard.image.text.size(), layout.total_words());

    EXPECT_EQ(p.run().status, sim::RunResult::Status::kHalted) << backend;

    // ... and sealed: the lint re-derives every block's seal, so a clean
    // report covers the dead block too. Its only finding is the block no
    // control path reaches.
    const verify::Report report = p.lint();
    EXPECT_TRUE(report.clean()) << backend;
    ASSERT_EQ(report.findings.size(), 1u) << backend;
    EXPECT_EQ(report.findings[0].rule, verify::Rule::kUnreachableBlock);
    EXPECT_EQ(report.findings[0].block,
              (dead_block / 4 - layout.text_base_word()) /
                  layout.policy().words_per_block);
  }
}

}  // namespace
}  // namespace sofia::xform
