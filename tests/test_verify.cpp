// Static verifier tests: every rule of the lint catalog is driven both ways
// (a clean construction lints clean, a targeted mutation trips exactly that
// rule), the whole workload registry lints clean across schemes, ciphers and
// granularities, the tamper matrix is cross-checked against the simulated
// device's runtime verdicts, and the sofia-lint-v1 JSON output is
// byte-deterministic and round-trips through the reader. Underneath, the
// abstract domain's lattice laws are pinned directly, and a digest pins
// every fact the dataflow engine computes over the scheme matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "driver/sweep.hpp"
#include "pipeline/pipeline.hpp"
#include "random_program.hpp"
#include "scheme/scheme.hpp"
#include "sim_test_util.hpp"
#include "support/hash.hpp"
#include "support/hex.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "verify/dataflow.hpp"
#include "verify/verify.hpp"
#include "workloads/workloads.hpp"

namespace sofia::verify {
namespace {

// ---------------------------------------------------------------------------
// Hand-built models: the smallest programs that exercise one rule each
// ---------------------------------------------------------------------------

std::uint32_t enc(isa::Opcode op, unsigned rd = 0, unsigned ra = 0,
                  unsigned rb = 0, std::int32_t imm = 0) {
  return isa::encode(isa::Instruction{op, static_cast<std::uint8_t>(rd),
                                      static_cast<std::uint8_t>(ra),
                                      static_cast<std::uint8_t>(rb), imm});
}

DeviceSpec test_spec() {
  DeviceSpec spec;
  spec.keys = test::test_keys();
  return spec;
}

/// Two execution blocks: block 0 jumps to block 1, block 1 halts.
ProgramModel two_block_model() {
  ProgramModel m;
  m.policy = xform::BlockPolicy::paper_default();
  ModelBlock b0;
  b0.base_word = 0;
  b0.pred1_word = assembler::kResetPrevWord;
  b0.inst_words.assign(5, enc(isa::Opcode::kNop));
  b0.inst_words.push_back(enc(isa::Opcode::kJal, 0, 0, 0, 1));  // word 7 -> 8
  ModelBlock b1;
  b1.base_word = 8;
  b1.pred1_word = 7;  // block 0's exit word
  b1.inst_words.assign(5, enc(isa::Opcode::kNop));
  b1.inst_words.push_back(enc(isa::Opcode::kHalt));
  m.blocks = {b0, b1};
  return m;
}

/// Exec -> {exec, mux}: block 0 branches into the multiplexor's path-1
/// entry and falls through to block 1, whose jump enters via path 2.
ProgramModel mux_model() {
  ProgramModel m;
  m.policy = xform::BlockPolicy::paper_default();
  ModelBlock b0;
  b0.base_word = 0;
  b0.pred1_word = assembler::kResetPrevWord;
  b0.inst_words.assign(5, enc(isa::Opcode::kNop));
  // word 7 -> word 17 (mux word offset 1); fall-through -> word 8.
  b0.inst_words.push_back(enc(isa::Opcode::kBeq, 0, 1, 2, 10));
  ModelBlock b1;
  b1.base_word = 8;
  b1.pred1_word = 7;
  b1.inst_words.assign(5, enc(isa::Opcode::kNop));
  // word 15 -> word 18 (mux word offset 2).
  b1.inst_words.push_back(enc(isa::Opcode::kJal, 0, 0, 0, 3));
  ModelBlock mux;
  mux.is_mux = true;
  mux.base_word = 16;
  mux.pred1_word = 7;   // path 1: the branch
  mux.pred2_word = 15;  // path 2: the jump
  mux.inst_words.assign(4, enc(isa::Opcode::kNop));
  mux.inst_words.push_back(enc(isa::Opcode::kHalt));
  m.blocks = {b0, b1, mux};
  return m;
}

/// Seal every model block with the spec's scheme into a consistent image —
/// the ground truth the mutation tests then corrupt one axis at a time.
assembler::LoadImage seal_model(const ProgramModel& m, const DeviceSpec& spec) {
  assembler::LoadImage img;
  img.text_base = m.text_base;
  img.entry = m.entry;
  img.entry_prev = m.entry_prev_word;
  img.sofia = true;
  img.omega = spec.keys.omega;
  img.per_pair = spec.granularity == crypto::Granularity::kPerPair;
  img.text.assign(m.total_words(), 0);
  const auto sealer =
      scheme::get_scheme(spec.scheme).make_sealer(spec.keys, spec.granularity);
  for (const ModelBlock& blk : m.blocks) {
    const auto words = sealer->seal(
        scheme::BlockInfo{blk.is_mux, blk.base_word, blk.pred1_word,
                          blk.pred2_word},
        blk.inst_words);
    std::copy(words.begin(), words.end(),
              img.text.begin() + (blk.base_word - m.text_base / 4));
  }
  return img;
}

bool has_rule(const Report& r, Rule rule) {
  return std::any_of(r.findings.begin(), r.findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

std::size_t rule_count(const Report& r, Rule rule) {
  return static_cast<std::size_t>(
      std::count_if(r.findings.begin(), r.findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

TEST(RuleCatalog, CoversEveryRuleInEnumOrder) {
  const auto& catalog = rule_catalog();
  ASSERT_EQ(catalog.size(), 20u);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(catalog[i].rule), i);
    EXPECT_EQ(to_string(catalog[i].rule), catalog[i].name);
    EXPECT_FALSE(catalog[i].description.empty());
  }
  EXPECT_EQ(to_string(Rule::kEdgeSealMismatch), "edge-seal-mismatch");
  EXPECT_EQ(to_string(Rule::kStoreToTextProven), "store-to-text-proven");
  EXPECT_EQ(to_string(Rule::kUnresolvedIndirect), "unresolved-indirect");
  EXPECT_EQ(to_string(Severity::kWarning), "warning");
  // Exactly the three advisory (non-enforcement) rules are warnings.
  std::size_t warnings = 0;
  for (const auto& info : catalog)
    if (info.severity == Severity::kWarning) ++warnings;
  EXPECT_EQ(warnings, 3u);
}

// ---------------------------------------------------------------------------
// Clean constructions
// ---------------------------------------------------------------------------

TEST(HandModel, TwoBlockProgramLintsClean) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(report.clean()) << report.render_text();
  EXPECT_TRUE(report.findings.empty()) << report.render_text();
  EXPECT_EQ(report.blocks_checked, 2u);
  EXPECT_EQ(report.entries_checked, 2u);
  EXPECT_EQ(report.edges_checked, 2u);  // reset entry + the jump
}

TEST(HandModel, MuxProgramLintsClean) {
  const auto spec = test_spec();
  const auto m = mux_model();
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(report.clean()) << report.render_text();
  EXPECT_EQ(report.blocks_checked, 3u);
  // block 0 word 0, block 1 word 0, mux words 0 and 1.
  EXPECT_EQ(report.entries_checked, 4u);
  EXPECT_EQ(report.edges_checked, 4u);
}

TEST(HandModel, RenderTextSummarizesCounters) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  const auto text = lint(m, seal_model(m, spec), spec).render_text();
  EXPECT_NE(text.find("2 block(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("0 error(s)"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// One mutation, one rule
// ---------------------------------------------------------------------------

TEST(Rules, ImageMetadataWrongEntry) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.entry += 4;
  const auto report = lint(m, img, spec);
  EXPECT_TRUE(has_rule(report, Rule::kImageMetadata));
  EXPECT_FALSE(report.clean());
}

TEST(Rules, ImageMetadataNotSofia) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.sofia = false;
  EXPECT_TRUE(has_rule(lint(m, img, spec), Rule::kImageMetadata));
}

TEST(Rules, ImageMetadataWrongResetPrev) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.entry_prev = 42;
  EXPECT_TRUE(has_rule(lint(m, img, spec), Rule::kImageMetadata));
}

TEST(Rules, GeometryTruncatedText) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.text.pop_back();
  const auto report = lint(m, img, spec);
  EXPECT_TRUE(has_rule(report, Rule::kGeometry));
  // Seal comparison is meaningless against a truncated image.
  EXPECT_EQ(report.blocks_checked, 0u);
}

TEST(Rules, GeometryWrongInstructionCount) {
  const auto spec = test_spec();
  auto m = two_block_model();
  const auto img = seal_model(m, spec);
  m.blocks[1].inst_words.pop_back();
  EXPECT_TRUE(has_rule(lint(m, img, spec), Rule::kGeometry));
}

TEST(Rules, OmegaMismatch) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.omega ^= 0x1111;
  EXPECT_TRUE(has_rule(lint(m, img, spec), Rule::kOmegaMismatch));
}

TEST(Rules, GranularityMismatch) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.per_pair = !img.per_pair;
  EXPECT_TRUE(has_rule(lint(m, img, spec), Rule::kGranularityMismatch));
}

TEST(Rules, GranularityIgnoredBySchemesWithoutThatAxis) {
  auto spec = test_spec();
  spec.scheme = "sponge";
  ASSERT_FALSE(scheme::get_scheme("sponge").traits().uses_granularity);
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.per_pair = !img.per_pair;
  EXPECT_FALSE(has_rule(lint(m, img, spec), Rule::kGranularityMismatch));
}

TEST(Rules, ProfileMismatchCollapsesPerBlockNoise) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  const auto img = seal_model(m, spec);
  auto wrong = spec;
  Rng rng(99);
  wrong.keys = crypto::KeySet::random(spec.keys.kind, rng);
  wrong.keys.omega = spec.keys.omega;  // isolate the key axis
  const auto report = lint(m, img, wrong);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(rule_count(report, Rule::kProfileMismatch), 1u);
  EXPECT_FALSE(has_rule(report, Rule::kTamperedText));
}

TEST(Rules, TamperedTextFlipsOneBodyBit) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.text[8 + 3] ^= 0x20;  // block 1, instruction word
  const auto report = lint(m, img, spec);
  EXPECT_TRUE(has_rule(report, Rule::kTamperedText));
  EXPECT_FALSE(has_rule(report, Rule::kProfileMismatch));
  const auto it = std::find_if(
      report.findings.begin(), report.findings.end(),
      [](const Finding& f) { return f.rule == Rule::kTamperedText; });
  ASSERT_NE(it, report.findings.end());
  EXPECT_EQ(it->block, 1);
  EXPECT_EQ(it->insn, 8 + 3);
}

TEST(Rules, ForgedHeaderFlipsOnlyHeaderWords) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.text[8] ^= 1;  // block 1, header/MAC word
  const auto report = lint(m, img, spec);
  EXPECT_TRUE(has_rule(report, Rule::kForgedHeader));
  EXPECT_FALSE(has_rule(report, Rule::kTamperedText));
}

TEST(Rules, RelocatedBlockNamesTheDonor) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  std::copy(img.text.begin(), img.text.begin() + 8, img.text.begin() + 8);
  const auto report = lint(m, img, spec);
  ASSERT_TRUE(has_rule(report, Rule::kRelocatedBlock));
  const auto it = std::find_if(
      report.findings.begin(), report.findings.end(),
      [](const Finding& f) { return f.rule == Rule::kRelocatedBlock; });
  EXPECT_EQ(it->block, 1);
  EXPECT_NE(it->message.find("block 0"), std::string::npos) << it->message;
}

TEST(Rules, EdgeSealMismatchWrongDeclaredPredecessor) {
  const auto spec = test_spec();
  auto m = two_block_model();
  // The toolchain sealed block 1 for the wrong predecessor; the sealing is
  // internally consistent (so no seal finding) but the edge cannot open it.
  m.blocks[1].pred1_word = 0x123;
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kEdgeSealMismatch));
  EXPECT_FALSE(has_rule(report, Rule::kTamperedText));
  EXPECT_FALSE(has_rule(report, Rule::kProfileMismatch));
}

TEST(Rules, AmbiguousPredecessorTwoArrivals) {
  const auto spec = test_spec();
  auto m = mux_model();
  // Redirect block 1's jump from the mux's path-2 entry to path 1, which
  // the branch in block 0 already uses: two distinct prevPC values.
  m.blocks[1].inst_words.back() = enc(isa::Opcode::kJal, 0, 0, 0, 2);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kAmbiguousPredecessor));
}

TEST(Rules, InvalidEntryMidBlockTarget) {
  const auto spec = test_spec();
  auto m = two_block_model();
  m.blocks[0].inst_words.back() =
      enc(isa::Opcode::kJal, 0, 0, 0, 2);  // word 9: offset 1 of an exec block
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kInvalidEntry));
}

TEST(Rules, InvalidEntryMuxWordZero) {
  const auto spec = test_spec();
  auto m = mux_model();
  // Word 16 is the mux block's word 0 — no transfer may enter there.
  m.blocks[1].inst_words.back() = enc(isa::Opcode::kJal, 0, 0, 0, 1);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kInvalidEntry));
}

TEST(Rules, InvalidEntryOutsideText) {
  const auto spec = test_spec();
  auto m = two_block_model();
  m.blocks[0].inst_words.back() = enc(isa::Opcode::kJal, 0, 0, 0, 1000);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kInvalidEntry));
}

TEST(Rules, ControlPlacementOutsideExitSlot) {
  const auto spec = test_spec();
  auto m = two_block_model();
  m.blocks[1].inst_words[0] = enc(isa::Opcode::kJal, 0, 0, 0, -2);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kControlPlacement));
}

TEST(Rules, StorePlacementBelowStoreMin) {
  const auto spec = test_spec();
  auto m = two_block_model();
  // Slot 0 is block word 2, below the paper policy's store_min_word = 4.
  m.blocks[1].inst_words[0] = enc(isa::Opcode::kSw, 0, 1, 2, 0);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kStorePlacement));
  // The same store two slots later conforms.
  auto ok = two_block_model();
  ok.blocks[1].inst_words[2] = enc(isa::Opcode::kSw, 0, 1, 2, 0);
  EXPECT_TRUE(lint(ok, seal_model(ok, spec), spec).clean());
}

TEST(Rules, UndecodableInstruction) {
  const auto spec = test_spec();
  auto m = two_block_model();
  ASSERT_FALSE(isa::decode(0xFFFFFFFFu).has_value());
  m.blocks[1].inst_words[1] = 0xFFFFFFFFu;
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kUndecodableInstruction));
}

TEST(Rules, StrayIndirectJump) {
  const auto spec = test_spec();
  auto m = two_block_model();
  m.blocks[1].inst_words.back() = enc(isa::Opcode::kJalr, 1, 1, 0, 0);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kStrayIndirectJump));
}

TEST(Rules, RetEdgesResolveAgainstRetTargets) {
  const auto spec = test_spec();
  auto m = two_block_model();
  // Turn block 1 into a returning callee whose single call site's link
  // address is block 0's entry — a self-loop shape, but enough to prove the
  // walk follows ret_targets and checks the arriving predecessor.
  m.blocks[1].inst_words.back() =
      enc(isa::Opcode::kJalr, 0, isa::kRegLr, 0, 0);
  m.blocks[1].ret_targets = {0};  // byte address of block 0's entry
  auto report = lint(m, seal_model(m, spec), spec);
  // Block 0's entry is sealed for the reset word, not block 1's exit.
  EXPECT_TRUE(has_rule(report, Rule::kEdgeSealMismatch));
  EXPECT_TRUE(has_rule(report, Rule::kAmbiguousPredecessor));
  EXPECT_FALSE(has_rule(report, Rule::kStrayIndirectJump));
}

TEST(Rules, UnreachableBlockIsAWarning) {
  const auto spec = test_spec();
  auto m = two_block_model();
  ModelBlock orphan;
  orphan.base_word = 16;
  orphan.pred1_word = 7;
  orphan.inst_words.assign(5, enc(isa::Opcode::kNop));
  orphan.inst_words.push_back(enc(isa::Opcode::kHalt));
  m.blocks.push_back(orphan);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(has_rule(report, Rule::kUnreachableBlock));
  EXPECT_TRUE(report.clean());  // warning, not error
  EXPECT_EQ(report.count(Severity::kWarning), 1u);
}

TEST(Rules, StoreProvenInsideTextIsAnError) {
  const auto spec = test_spec();
  auto m = two_block_model();
  // r1 = 4: the dataflow engine proves the store writes inside the sealed
  // text section — an error, not the old heuristic warning.
  m.blocks[1].inst_words[2] = enc(isa::Opcode::kAddi, 1, 0, 0, 4);
  m.blocks[1].inst_words[3] = enc(isa::Opcode::kSw, 2, 1, 0, 0);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_EQ(rule_count(report, Rule::kStoreToTextProven), 1u);
  EXPECT_FALSE(report.clean());
}

TEST(Rules, StoreProvenOutsideTextIsSilentlySafe) {
  const auto spec = test_spec();
  auto m = two_block_model();
  m.data_base = 0x00100000;
  m.data.assign(16, 0);
  // r1 = 0x40 << 14 = 0x00100000: provably in the data section, so the
  // store produces no finding and counts as proven safe.
  m.blocks[1].inst_words[2] = enc(isa::Opcode::kLui, 1, 0, 0, 0x40);
  m.blocks[1].inst_words[3] = enc(isa::Opcode::kSw, 2, 1, 0, 0);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_FALSE(has_rule(report, Rule::kStoreToText));
  EXPECT_FALSE(has_rule(report, Rule::kStoreToTextProven));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.stores_checked, 1u);
  EXPECT_EQ(report.stores_proven_safe, 1u);
}

TEST(Rules, UnknownStoreAddressIsOutOfStaticScope) {
  const auto spec = test_spec();
  auto m = two_block_model();
  // r1 is never defined: the store's address is top — no static claim,
  // no finding, and it does not count as proven safe.
  m.blocks[1].inst_words[3] = enc(isa::Opcode::kSw, 2, 1, 0, 0);
  const auto report = lint(m, seal_model(m, spec), spec);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.stores_checked, 1u);
  EXPECT_EQ(report.stores_proven_safe, 0u);
}

// ---------------------------------------------------------------------------
// The abstract domain (absval.hpp): lattice laws and predicates
// ---------------------------------------------------------------------------

/// Kind, bounds, stride and (up to 4096) members: a complete description.
std::string render(const AbsVal& v) {
  std::string out;
  switch (v.kind()) {
    case AbsVal::Kind::kBottom: return "bottom";
    case AbsVal::Kind::kTop: return "top";
    case AbsVal::Kind::kConsts: out = "consts"; break;
    case AbsVal::Kind::kInterval: out = "interval"; break;
  }
  out += ' ';
  out += hex32(v.min());
  out += "..";
  out += hex32(v.max());
  out += '/';
  out += std::to_string(v.stride());
  if (const auto members = v.enumerate(4096)) {
    out += " =";
    for (const std::uint32_t m : *members) {
      out += ' ';
      out += hex32(m);
    }
  }
  return out;
}

AbsVal set_of(std::vector<std::uint32_t> values) {
  return AbsVal::consts(values.data(), values.size());
}

::testing::AssertionResult same(const AbsVal& got, const AbsVal& want) {
  if (got == want) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "got " << render(got) << ", want " << render(want);
}

std::vector<AbsVal> sample_values() {
  return {AbsVal::bottom(),
          AbsVal::top(),
          AbsVal::constant(7),
          set_of({8, 0, 4, 4}),
          set_of({1, 100, 0xFFFFFFFF}),
          AbsVal::interval(0x1000, 0x1040, 4),
          AbsVal::interval(0, 0xFF),
          AbsVal::interval(3, 3003, 100),
          AbsVal::interval(0x10000000, 0xFFFFFFF0, 16)};
}

TEST(AbsValLattice, JoinIsIdempotentAndCommutative) {
  const auto values = sample_values();
  for (const AbsVal& a : values) {
    EXPECT_TRUE(same(AbsVal::join(a, a), a));
    EXPECT_TRUE(same(AbsVal::join(a, AbsVal::bottom()), a));
    EXPECT_TRUE(same(AbsVal::join(a, AbsVal::top()), AbsVal::top()));
    for (const AbsVal& b : values)
      EXPECT_TRUE(same(AbsVal::join(a, b), AbsVal::join(b, a)))
          << render(a) << " join " << render(b);
  }
}

TEST(AbsValLattice, ConstantSetsStayExactUpToTheLimit) {
  std::vector<std::uint32_t> values;
  for (std::uint32_t i = 0; i < AbsVal::kMaxConsts; ++i)
    values.push_back(60 - 4 * i);
  const AbsVal sixteen = set_of(values);
  EXPECT_EQ(sixteen.kind(), AbsVal::Kind::kConsts);
  EXPECT_EQ(sixteen.min(), 0u);
  EXPECT_EQ(sixteen.max(), 60u);
  EXPECT_TRUE(same(AbsVal::join(sixteen, AbsVal::constant(32)), sixteen));
  EXPECT_EQ(AbsVal::constant(5).as_constant(), 5u);
  EXPECT_EQ(set_of({5, 5, 5}).as_constant(), 5u);
  EXPECT_FALSE(set_of({5, 6}).as_constant());
}

TEST(AbsValLattice, SeventeenConstantsCollapseToAGcdStrideHull) {
  // 17 values 0, 6, ..., 96: one past kMaxConsts.
  std::vector<std::uint32_t> values;
  for (std::uint32_t i = 0; i <= AbsVal::kMaxConsts; ++i)
    values.push_back(6 * i);
  EXPECT_TRUE(same(set_of(values), AbsVal::interval(0, 96, 6)));
  // The same collapse through a join of two exact sets: the merged gaps
  // (2, 4 and 940) bring the stride down to 2.
  std::vector<std::uint32_t> low;
  for (std::uint32_t i = 0; i < AbsVal::kMaxConsts; ++i) low.push_back(4 * i);
  const AbsVal joined = AbsVal::join(set_of(low), set_of({2, 1000}));
  EXPECT_TRUE(same(joined, AbsVal::interval(0, 1000, 2)));
  EXPECT_TRUE(joined.proven_outside(1001, 2000));
  EXPECT_TRUE(joined.proven_outside(3, 4));
  // Joining a set into an interval keeps the common stride.
  EXPECT_TRUE(same(AbsVal::join(AbsVal::interval(0, 96, 6), set_of({102, 120})),
                   AbsVal::interval(0, 120, 6)));
}

TEST(AbsValLattice, WidenSnapsToThresholdsThenGoesToTop) {
  const std::vector<std::uint32_t> thresholds = {0, 0x100, 0x1000};
  const AbsVal first = AbsVal::interval(0x10, 0x20);
  const AbsVal w1 =
      AbsVal::widen(first, AbsVal::interval(0x10, 0x30), thresholds);
  EXPECT_TRUE(same(w1, AbsVal::interval(0x10, 0x100)));
  const AbsVal w2 =
      AbsVal::widen(w1, AbsVal::interval(0x10, 0x200), thresholds);
  EXPECT_TRUE(same(w2, AbsVal::interval(0x10, 0x1000)));
  EXPECT_TRUE(
      AbsVal::widen(w2, AbsVal::interval(0x10, 0x2000), thresholds).is_top());
  // A falling lower bound snaps down to the largest threshold below it.
  EXPECT_TRUE(same(AbsVal::widen(AbsVal::interval(0x200, 0x300),
                                 AbsVal::constant(0x150), thresholds),
                   AbsVal::interval(0x100, 0x300)));
  // No escape: widening returns the previous value unchanged.
  EXPECT_TRUE(same(AbsVal::widen(w1, AbsVal::constant(0x40), thresholds), w1));
  // Constant sets grow exactly; widening waits for the collapse.
  EXPECT_TRUE(same(AbsVal::widen(AbsVal::constant(1), AbsVal::constant(2),
                                 thresholds),
                   set_of({1, 2})));
  EXPECT_TRUE(AbsVal::widen(AbsVal::top(), AbsVal::constant(1), thresholds)
                  .is_top());
}

TEST(AbsValLattice, ArithmeticThatMayWrapGoesToTop) {
  EXPECT_TRUE(AbsVal::add(AbsVal::constant(0xFFFFFFFF), AbsVal::constant(1))
                  .is_top());
  EXPECT_TRUE(AbsVal::add(AbsVal::interval(0xFFFFFF00, 0xFFFFFFF0, 16),
                          AbsVal::constant(0x100))
                  .is_top());
  EXPECT_TRUE(
      AbsVal::mul(AbsVal::interval(0, 0x10000), AbsVal::constant(0x10000))
          .is_top());
  EXPECT_TRUE(AbsVal::shl(AbsVal::interval(0, 0x80000000, 0x80000000),
                          AbsVal::constant(1))
                  .is_top());
  // Without a possible wrap the bounds survive. A single constant counts
  // as stride 1 here, so interval + constant keeps the bounds, not the
  // stride (a known imprecision; the pinned facts depend on it).
  EXPECT_TRUE(same(AbsVal::add(AbsVal::interval(0, 16, 4), AbsVal::constant(8)),
                   AbsVal::interval(8, 24)));
  EXPECT_TRUE(same(AbsVal::add(AbsVal::interval(0, 16, 4), set_of({8, 12})),
                   AbsVal::interval(8, 28, 4)));
  EXPECT_TRUE(same(AbsVal::shl(AbsVal::interval(1, 7, 2), AbsVal::constant(2)),
                   AbsVal::interval(4, 28, 8)));
  // Exact constant pairs wrap on purpose (`addi r, r, -8`).
  EXPECT_TRUE(same(AbsVal::sub(AbsVal::constant(0), AbsVal::constant(8)),
                   AbsVal::constant(0xFFFFFFF8)));
  // 16 x 16 pairwise results fill the candidate buffer, then collapse.
  std::vector<std::uint32_t> a, b;
  for (std::uint32_t i = 0; i < AbsVal::kMaxConsts; ++i) {
    a.push_back(i);
    b.push_back(i << 8);
  }
  EXPECT_TRUE(same(AbsVal::or_(set_of(a), set_of(b)),
                   AbsVal::interval(0, 0xF0F, 1)));
}

TEST(AbsValLattice, EnumerateHonoursItsLimit) {
  const AbsVal three = set_of({9, 1, 5});
  EXPECT_EQ(three.enumerate(3), (std::vector<std::uint32_t>{1, 5, 9}));
  EXPECT_FALSE(three.enumerate(2));
  const AbsVal sixteen = AbsVal::interval(0, 60, 4);
  const auto members = sixteen.enumerate(16);
  ASSERT_TRUE(members);
  ASSERT_EQ(members->size(), 16u);
  EXPECT_EQ(members->front(), 0u);
  EXPECT_EQ(members->back(), 60u);
  EXPECT_FALSE(sixteen.enumerate(15));
  EXPECT_FALSE(AbsVal::top().enumerate(64));
  EXPECT_FALSE(AbsVal::bottom().enumerate(64));
  // The member count of the widest interval does not overflow.
  EXPECT_FALSE(AbsVal::interval(0, 0xFFFFFFFF).enumerate(64));
  const auto tail = AbsVal::interval(0xFFFFFFF0, 0xFFFFFFFF).enumerate(16);
  ASSERT_TRUE(tail);
  EXPECT_EQ(tail->back(), 0xFFFFFFFFu);
  // for_each visits exactly what enumerate returns, and nothing past the
  // limit.
  std::vector<std::uint32_t> visited;
  EXPECT_TRUE(
      sixteen.for_each(16, [&](std::uint32_t v) { visited.push_back(v); }));
  EXPECT_EQ(visited, *members);
  EXPECT_FALSE(sixteen.for_each(15, [&](std::uint32_t) { ADD_FAILURE(); }));
}

TEST(AbsValLattice, ProvenOutsideSeesThroughStraddlingConstantSets) {
  const AbsVal straddle = set_of({0x10, 0x90});
  EXPECT_TRUE(straddle.proven_outside(0x20, 0x80));
  EXPECT_FALSE(straddle.may_intersect(0x20, 0x80));
  EXPECT_FALSE(straddle.proven_in(0x20, 0x80));
  EXPECT_FALSE(set_of({0x10, 0x50, 0x90}).proven_outside(0x20, 0x80));
  EXPECT_FALSE(straddle.proven_outside(0x90, 0x91));
  // The hull of the same two points touches the range; the stride-0x80
  // interval with the same members does not.
  EXPECT_FALSE(AbsVal::interval(0x10, 0x90).proven_outside(0x20, 0x80));
  EXPECT_TRUE(AbsVal::interval(0x10, 0x90, 0x80).proven_outside(0x20, 0x80));
  EXPECT_FALSE(AbsVal::top().proven_outside(0, 1));
  EXPECT_FALSE(AbsVal::bottom().proven_outside(0, 1));
  EXPECT_TRUE(AbsVal::top().may_intersect(0, 1));
}

TEST(AbsValLattice, ProvenOutsideOfAStridedIntervalMatchesBruteForce) {
  Rng rng(31);
  for (int trial = 0; trial < 20000; ++trial) {
    // Small intervals near zero and near the top of the address space.
    const std::uint32_t base = rng.next_bool() ? 0 : 0xFFFFFE00;
    const auto stride = static_cast<std::uint32_t>(rng.next_range(1, 9));
    const auto count = static_cast<std::uint32_t>(rng.next_range(2, 40));
    const auto lo_ = base + static_cast<std::uint32_t>(rng.next_range(0, 100));
    const std::uint32_t hi_ = lo_ + (count - 1) * stride;
    const auto lo = base + static_cast<std::uint32_t>(rng.next_range(0, 450));
    const auto hi = lo + static_cast<std::uint32_t>(rng.next_range(1, 60));
    bool touches = false;
    for (std::uint32_t k = 0; k < count; ++k) {
      const std::uint32_t v = lo_ + k * stride;
      if (v >= lo && v < hi) touches = true;
    }
    EXPECT_EQ(AbsVal::interval(lo_, hi_, stride).proven_outside(lo, hi),
              !touches)
        << "interval " << lo_ << ".." << hi_ << "/" << stride << " range ["
        << lo << ", " << hi << ")";
  }
  // The widest stride-16 interval: answered without walking 2^28 members.
  const AbsVal wide = AbsVal::interval(0, 0xFFFFFFF0, 16);
  EXPECT_TRUE(wide.proven_outside(0x100004, 0x100008));
  EXPECT_FALSE(wide.proven_outside(0x100004, 0x100011));
  EXPECT_FALSE(wide.proven_outside(0x100000, 0x100001));
  EXPECT_TRUE(wide.proven_outside(0xFFFFFFF1, 0xFFFFFFFF));
}

// ---------------------------------------------------------------------------
// Real toolchain output: the differential contract
// ---------------------------------------------------------------------------

TEST(Differential, EveryWorkloadLintsCleanAcrossTheMatrix) {
  for (const auto& wl : workloads::all_workloads()) {
    const std::uint32_t size = std::max(4u, wl.default_size / 8);
    for (const auto& scheme_name : scheme::scheme_names()) {
      for (const auto kind :
           {crypto::CipherKind::kSpeck64_128, crypto::CipherKind::kRectangle80}) {
        for (const auto gran :
             {crypto::Granularity::kPerPair, crypto::Granularity::kPerWord}) {
          // RECTANGLE-80 is slow in software; one granularity covers it.
          if (kind == crypto::CipherKind::kRectangle80 &&
              gran == crypto::Granularity::kPerWord)
            continue;
          auto profile = pipeline::DeviceProfile::example(kind);
          profile.scheme = scheme_name;
          profile.granularity = gran;
          auto session =
              pipeline::Pipeline::from_workload(wl, 1, size, profile);
          const auto report = session.lint();
          EXPECT_TRUE(report.clean())
              << wl.name << " scheme=" << scheme_name
              << " cipher=" << crypto::to_string(kind)
              << " gran=" << crypto::to_string(gran) << "\n"
              << report.render_text();
          EXPECT_GT(report.blocks_checked, 0u);
          EXPECT_GT(report.edges_checked, 0u);
        }
      }
    }
  }
}

TEST(Differential, NonDefaultPolicyLintsClean) {
  auto profile = pipeline::DeviceProfile::example(
      crypto::CipherKind::kSpeck64_128);
  profile.policy = xform::BlockPolicy{6, 0};
  auto session = pipeline::Pipeline::from_workload("fib", 1, 8, profile);
  EXPECT_TRUE(session.lint().clean());
}

// The soundness harness: for every workload × 25 generator seeds × both
// ciphers, transform under the gating scheme (indirect jumps stay live),
// run the untampered image on the cycle backend with a full trace, and
// check the dataflow engine's proofs against observed behavior:
//  * every runtime-observed indirect-transfer target lands in a block of
//    the static target set (declared, and proven when the engine bounded
//    it) — an observed target outside the set would be unsound;
//  * a program whose stores the engine proved safe never trips the
//    runtime store gate (the untampered run completes cleanly).
TEST(Differential, RuntimeBehaviorStaysWithinTheStaticProofs) {
  constexpr std::uint64_t kSeeds = 25;
  std::uint64_t observed_jalr = 0;
  std::uint64_t proven_safe_total = 0;
  for (const auto& wl : workloads::all_workloads()) {
    const std::uint32_t size = std::max(4u, wl.default_size / 8);
    for (const auto kind :
         {crypto::CipherKind::kSpeck64_128, crypto::CipherKind::kRectangle80}) {
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const std::string label = std::string(wl.name) + " seed=" +
                                  std::to_string(seed) + " cipher=" +
                                  std::string(crypto::to_string(kind));
        auto profile = pipeline::DeviceProfile::from_seed(kind, seed);
        profile.scheme = pipeline::DeviceProfile::parse_scheme("flta");
        profile.backend = pipeline::DeviceProfile::parse_backend("cycle");
        auto session = pipeline::Pipeline::from_workload(wl, seed, size,
                                                         profile);
        sim::SimConfig config;
        config.collect_trace = true;
        config.max_trace = 8'000'000;
        session.set_sim_config(config);

        const auto report = session.lint();
        ASSERT_TRUE(report.clean()) << label << "\n" << report.render_text();
        proven_safe_total += report.stores_proven_safe;

        const auto& run = session.run();
        ASSERT_TRUE(run.ok()) << label << " status=" << static_cast<int>(run.status);
        ASSERT_LT(run.trace.size(), static_cast<std::size_t>(config.max_trace))
            << label << ": trace truncated; raise max_trace";

        const auto model = model_of(session.hardened());
        const std::uint32_t block_bytes = model.policy.words_per_block * 4;
        const auto block_of = [&](std::uint32_t addr) {
          return (addr - model.text_base) / block_bytes;
        };
        for (std::size_t i = 0; i + 1 < run.trace.size(); ++i) {
          const std::int64_t word_addr = run.trace[i].pc / 4;
          const auto rec = std::find_if(
              report.indirects.begin(), report.indirects.end(),
              [&](const IndirectTargets& r) { return r.insn == word_addr; });
          if (rec == report.indirects.end()) continue;
          ++observed_jalr;
          const std::uint32_t target_block = block_of(run.trace[i + 1].pc);
          const auto lands_in = [&](const std::vector<std::uint32_t>& set) {
            return std::any_of(set.begin(), set.end(), [&](std::uint32_t t) {
              return block_of(t) == target_block;
            });
          };
          ASSERT_TRUE(lands_in(rec->declared))
              << label << ": runtime target block " << target_block
              << " outside the declared set of jalr @" << word_addr;
          if (rec->proven_finite) {
            ASSERT_TRUE(lands_in(rec->proven))
                << label << ": runtime target block " << target_block
                << " outside the PROVEN set of jalr @" << word_addr
                << " — the dataflow engine is unsound";
          }
        }
      }
    }
  }
  // The harness must not pass vacuously: the registry contains indirect
  // dispatch (minivm) and provably-safe stores.
  EXPECT_GT(observed_jalr, 0u);
  EXPECT_GT(proven_safe_total, 0u);
}

// Pinned dataflow facts: every fact the engine computes over the lint
// prefilter's scheme matrix (11 workloads x 4 schemes x 2 ciphers, per-job
// seeds) and a handful of random programs, rendered to text and hashed.
// Two digests hang off the same 94 analyses. The facts digest (stores and
// indirect targets) must survive any change to the worklist order or the
// domain's representation; a change to what the engine computes must
// update it deliberately. The work digest (`rounds`, `transfers`) moves
// with the worklist order, so a change to the order re-records it.

/// "key v1 v2 ...\n", built with += (g++ 12 warns on "literal" + string).
std::string line(std::initializer_list<std::string> fields) {
  std::string out;
  for (const auto& f : fields) {
    if (!out.empty()) out += ' ';
    out += f;
  }
  out += '\n';
  return out;
}

std::string render_facts(const dataflow::DataflowResult& r) {
  std::string out;
  for (const auto& st : r.stores)
    out += line({"store", std::to_string(st.block),
                 std::to_string(st.word_addr), std::to_string(st.size),
                 render(st.addr)});
  for (const auto& f : r.indirects)
    out += line({"jalr", std::to_string(f.block), std::to_string(f.word_addr),
                 render(f.target)});
  return out;
}

/// One labelled analysis of the pinned program set.
struct PinnedAnalysis {
  std::string label;
  dataflow::DataflowResult result;
};

/// The 94 pinned analyses, computed once for both digests.
const std::vector<PinnedAnalysis>& pinned_analyses() {
  static const std::vector<PinnedAnalysis> analyses = [] {
    std::vector<PinnedAnalysis> out;
    auto spec = driver::matrix("scheme");
    spec.vary_seed = true;
    for (const auto& job : driver::expand_jobs(spec)) {
      const auto& wl = workloads::workload(job.workload);
      auto p = pipeline::Pipeline::from_workload(wl, job.seed, job.size,
                                                 job.config.profile());
      p.set_memory_layout(job.config.opts.mem);
      out.push_back({line({"job", std::to_string(job.index), job.workload,
                           job.config.fingerprint()}),
                     dataflow::analyze(model_of(p.hardened()))});
    }
    Rng rng(16);
    for (int trial = 0; trial < 6; ++trial) {
      auto p = pipeline::Pipeline::from_source(test::random_program(rng));
      out.push_back({line({"random", std::to_string(trial)}),
                     dataflow::analyze(model_of(p.hardened()))});
    }
    return out;
  }();
  return analyses;
}

TEST(DataflowFacts, DigestIsPinnedOverTheSchemeMatrix) {
  support::Sha256 hasher;
  for (const auto& a : pinned_analyses()) {
    hasher.update(a.label);
    hasher.update(render_facts(a.result));
  }
  EXPECT_EQ(pinned_analyses().size(), 88u + 6u);
  EXPECT_EQ(support::to_hex(hasher.digest()),
            "460a705262be1c74b427a2d342e72de7e9d89b033b75062eb12051f122559548");
}

TEST(DataflowFacts, WorkIsPinnedOverTheSchemeMatrix) {
  support::Sha256 hasher;
  std::uint64_t transfers = 0;
  for (const auto& a : pinned_analyses()) {
    hasher.update(a.label);
    hasher.update(line({"rounds", std::to_string(a.result.rounds),
                        "transfers", std::to_string(a.result.transfers)}));
    transfers += a.result.transfers;
  }
  EXPECT_EQ(transfers, 257786u);
  EXPECT_EQ(support::to_hex(hasher.digest()),
            "4bcefbe2a09332f11c1175a7ae3b0a3485449adc27ff898786709b64956b7b16");
}

/// Fixture for the tamper matrix: one source, transformed once; every
/// statically decidable tamper must (a) trip the matching lint rule and
/// (b) agree with the device — the tampered image also fails at runtime.
class TamperMatrix : public ::testing::Test {
 protected:
  static pipeline::Pipeline& session() {
    static pipeline::Pipeline p = [] {
      auto profile = pipeline::DeviceProfile::with_keys(test::test_keys());
      auto s = pipeline::Pipeline::from_workload("fib", 1, 8, profile);
      s.image();  // force the transform
      return s;
    }();
    return p;
  }

  static assembler::LoadImage tampered(std::uint32_t word, std::uint32_t bit) {
    auto img = session().image();
    img.text[word] ^= 1u << bit;
    return img;
  }

  /// The runtime verdict for the same image the linter judged.
  static bool device_detects(const assembler::LoadImage& img) {
    const auto run = session().run_image(img);
    return run.reset.cause != sim::ResetCause::kNone || !run.ok();
  }
};

TEST_F(TamperMatrix, CleanImageAgreesBothWays) {
  EXPECT_TRUE(session().lint().clean());
  EXPECT_FALSE(device_detects(session().image()));
}

TEST_F(TamperMatrix, BodyBitFlip) {
  const auto img = tampered(3, 5);  // block 0 instruction word
  const auto report = session().lint_image(img);
  EXPECT_TRUE(has_rule(report, Rule::kTamperedText)) << report.render_text();
  EXPECT_TRUE(device_detects(img));
}

TEST_F(TamperMatrix, HeaderBitFlip) {
  const auto img = tampered(0, 17);  // block 0 MAC word
  const auto report = session().lint_image(img);
  EXPECT_TRUE(has_rule(report, Rule::kForgedHeader)) << report.render_text();
  EXPECT_TRUE(device_detects(img));
}

TEST_F(TamperMatrix, BlockSplice) {
  auto img = session().image();
  ASSERT_GE(img.text.size(), 24u);
  std::copy(img.text.begin(), img.text.begin() + 8, img.text.begin() + 8);
  const auto report = session().lint_image(img);
  EXPECT_TRUE(has_rule(report, Rule::kRelocatedBlock)) << report.render_text();
  EXPECT_TRUE(device_detects(img));
}

TEST_F(TamperMatrix, CrossVersionReplay) {
  // The same program sealed under a different version nonce: substituting
  // one of its blocks must fail statically and at runtime.
  auto other_profile = pipeline::DeviceProfile::with_keys(test::test_keys());
  other_profile.omega_override = 0x1111;
  auto other =
      pipeline::Pipeline::from_workload("fib", 1, 8, other_profile);
  auto img = session().image();
  const auto& donor = other.image();
  ASSERT_EQ(img.text.size(), donor.text.size());
  std::copy(donor.text.begin() + 8, donor.text.begin() + 16,
            img.text.begin() + 8);
  const auto report = session().lint_image(img);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(device_detects(img));
}

TEST_F(TamperMatrix, WrongKeysIsOneProfileFinding) {
  auto wrong = session().device_spec();
  Rng rng(7);
  wrong.keys = crypto::KeySet::random(wrong.keys.kind, rng);
  wrong.keys.omega = session().image().omega;
  const auto& hard = session().hardened();
  const auto report =
      verify::lint(verify::model_of(hard), session().image(), wrong);
  EXPECT_EQ(rule_count(report, Rule::kProfileMismatch), 1u)
      << report.render_text();
}

// ---------------------------------------------------------------------------
// Image-only mode
// ---------------------------------------------------------------------------

TEST(ImageOnly, CleanSavedImagePasses) {
  auto profile = pipeline::DeviceProfile::with_keys(test::test_keys());
  auto session = pipeline::Pipeline::from_workload("fib", 1, 8, profile);
  const auto report = verify::lint(session.image(), session.device_spec());
  EXPECT_TRUE(report.clean()) << report.render_text();
}

TEST(ImageOnly, MetadataDefectsAreFindings) {
  auto profile = pipeline::DeviceProfile::with_keys(test::test_keys());
  auto session = pipeline::Pipeline::from_workload("fib", 1, 8, profile);
  auto img = session.image();
  img.sofia = false;
  img.entry_prev = 3;
  img.omega ^= 1;
  img.entry = img.text_base + 4 * img.text.size();  // one past the end
  img.text.pop_back();
  const auto report = verify::lint(img, session.device_spec());
  EXPECT_TRUE(has_rule(report, Rule::kImageMetadata));
  EXPECT_TRUE(has_rule(report, Rule::kGeometry));
  EXPECT_TRUE(has_rule(report, Rule::kOmegaMismatch));
  EXPECT_TRUE(has_rule(report, Rule::kInvalidEntry));
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string report_json(const Report& report) {
  json::Writer w(2);
  report.to_json(w);
  return w.str();
}

TEST(Json, ByteIdenticalAcrossRuns) {
  const auto spec = test_spec();
  auto m = two_block_model();
  m.blocks[1].inst_words[0] = enc(isa::Opcode::kSw, 0, 1, 2, 0);
  const auto img = seal_model(m, spec);
  const auto doc1 = report_json(lint(m, img, spec));
  const auto doc2 = report_json(lint(m, img, spec));
  EXPECT_EQ(doc1, doc2);
  EXPECT_NE(doc1.find("\"store-placement\""), std::string::npos) << doc1;
}

TEST(Json, RoundTripsThroughTheReader) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  auto img = seal_model(m, spec);
  img.text[8 + 3] ^= 0x20;
  const auto doc = report_json(lint(m, img, spec));
  const auto value = json::parse(doc);
  json::Writer w(2);
  value.write(w);
  EXPECT_EQ(w.str(), doc);
}

TEST(Json, CountersAndVerdictMatchTheReport) {
  const auto spec = test_spec();
  const auto m = two_block_model();
  const auto doc = report_json(lint(m, seal_model(m, spec), spec));
  EXPECT_NE(doc.find("\"clean\": true"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"blocks_checked\": 2"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"errors\": 0"), std::string::npos) << doc;
}

TEST(Json, FindingsAreSortedDeterministically) {
  const auto spec = test_spec();
  auto m = two_block_model();
  m.blocks[1].inst_words[0] = enc(isa::Opcode::kSw, 0, 1, 2, 0);
  m.blocks[0].inst_words[1] = enc(isa::Opcode::kSw, 0, 1, 2, 0);
  const auto report = lint(m, seal_model(m, spec), spec);
  ASSERT_EQ(report.findings.size(), 2u);
  EXPECT_LT(report.findings[0].block, report.findings[1].block);
}

}  // namespace
}  // namespace sofia::verify
