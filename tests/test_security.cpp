// Security evaluation tests (paper §IV-A): every attack class must be
// detected on the SOFIA device before an externally visible effect, the
// same attacks must succeed against the vanilla core where applicable, and
// the forgery-cost analysis must reproduce the paper's numbers exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "security/forgery.hpp"
#include "sim_test_util.hpp"

namespace sofia::security {
namespace {

using campaign::Mutation;
using campaign::MutationKind;

const char* kVictim = R"(
main:
  li r1, 0
  li r2, 8
loop:
  call work
  addi r2, r2, -1
  bnez r2, loop
  la r3, out
  sw r1, 0(r3)
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
work:
  addi r1, r1, 3
  beqz r1, never
  addi r1, r1, 1
never:
  ret
.data
out: .word 0
)";

/// The test keys with Alg. 1's per-word CTR (the transform's default
/// granularity).
pipeline::DeviceProfile victim_profile() {
  auto profile = pipeline::DeviceProfile::with_keys(test::test_keys());
  profile.granularity = crypto::Granularity::kPerWord;
  return profile;
}

class Attacks : public ::testing::Test {
 protected:
  /// The victim sealed once; the cross-version donor is built as version
  /// omega 0x1111.
  static const campaign::Target& target() {
    static const campaign::Target t(kVictim, victim_profile(), 0x1111);
    return t;
  }

  static sim::RunResult attack(const Mutation& m) {
    return target().execute({m});
  }

  static bool detected(const sim::RunResult& run) {
    return campaign::classify(run, target().clean_run().output) ==
           campaign::TrialClass::kDetected;
  }
};

TEST_F(Attacks, CleanRunSucceeds) {
  EXPECT_TRUE(target().clean_run().ok());
  EXPECT_EQ(target().clean_run().output, "32\n");
}

TEST_F(Attacks, SingleBitFlipDetected) {
  // First instruction word.
  const auto run = attack({MutationKind::kBitFlip, 2, 5});
  EXPECT_TRUE(detected(run)) << to_string(run.status);
  EXPECT_EQ(run.reset.cause, sim::ResetCause::kMacMismatch);
}

TEST_F(Attacks, MacWordFlipDetected) {
  // Stored MAC word.
  EXPECT_TRUE(detected(attack({MutationKind::kBitFlip, 0, 17})));
}

TEST_F(Attacks, PatchWordDetected) {
  // Attacker writes a chosen (plaintext-encoded) instruction, hoping it
  // executes: the decrypting fetch turns it into garbage and the MAC fails.
  const std::uint32_t injected = isa::encode(
      isa::Instruction{isa::Opcode::kAddi, 1, 1, 0, 100});
  EXPECT_TRUE(detected(attack({MutationKind::kWordPatch, 3, injected})));
}

TEST_F(Attacks, RelocateWordDetected) {
  // Moving valid ciphertext elsewhere breaks the PC-bound counter — the
  // attack that defeats AES-ECB instruction randomization (paper §I).
  EXPECT_TRUE(detected(attack({MutationKind::kWordRelocate, 4, 12})));
}

TEST_F(Attacks, BlockSpliceDetected) {
  ASSERT_GE(target().geometry().blocks(), 3u);
  EXPECT_TRUE(detected(attack({MutationKind::kBlockSplice, 0, 2})));
}

TEST_F(Attacks, CrossVersionSpliceDetected) {
  EXPECT_TRUE(detected(attack({MutationKind::kCrossVersionSplice, 1})));
}

TEST_F(Attacks, HundredRandomBitFlipsAllDetectedOrHarmless) {
  Rng rng(2024);
  int detected = 0;
  int harmless = 0;
  for (int i = 0; i < 100; ++i) {
    const Mutation flip{MutationKind::kBitFlip,
                        rng.next_below(target().geometry().text_words),
                        rng.next_below(32)};
    const auto run = attack(flip);
    switch (campaign::classify(run, target().clean_run().output)) {
      case campaign::TrialClass::kDetected:
        ++detected;
        break;
      case campaign::TrialClass::kHarmless:
        // Flip landed in a block the run never fetched.
        ++harmless;
        break;
      case campaign::TrialClass::kEscaped:
        ADD_FAILURE() << flip.describe() << ": undetected corruption, status "
                      << to_string(run.status);
        break;
    }
  }
  EXPECT_EQ(detected + harmless, 100);
  EXPECT_GT(detected, 50);  // most of the text is live in this program
}

TEST_F(Attacks, DetectionIsPromptNoTamperedStoreCommits) {
  // The memory-visible output ("out" data word via console) must never
  // reflect a tampered execution: any non-clean output must coincide with
  // a reset *and* empty console output (stores gated).
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const auto word = rng.next_below(target().geometry().text_words);
    const Mutation flip{MutationKind::kBitFlip, word, rng.next_below(32)};
    const auto run = attack(flip);
    if (!detected(run)) continue;
    EXPECT_TRUE(run.output.empty() ||
                run.output == target().clean_run().output)
        << flip.describe() << " leaked output: " << run.output;
  }
}

TEST_F(Attacks, FetchFaultsDetectedOrMasked) {
  // Transient faults on the fetch path: one flipped bit in the N-th word
  // the device reads, instruction and MAC words alike. A fault may be
  // masked (clean run), but decryption plus MAC verification must never
  // let one alter the execution unnoticed.
  const auto& clean = target().clean_run();
  const std::uint64_t span = clean.stats.fetch_words + clean.stats.mac_words;
  Rng rng(99);
  int detected = 0;
  for (int i = 0; i < 100; ++i) {
    const Mutation fault{MutationKind::kFetchFault, rng.next_below(span),
                         rng.next_below(32)};
    const auto cls = campaign::classify(attack(fault), clean.output);
    EXPECT_NE(cls, campaign::TrialClass::kEscaped) << fault.describe();
    if (cls == campaign::TrialClass::kDetected) ++detected;
  }
  EXPECT_GT(detected, 90);
}

// ---------------------------------------------------------------------------
// Code-reuse demos (§IV-A-2).
// ---------------------------------------------------------------------------

/// One demo's four runs: the victim clean and attacked, on the vanilla core
/// and on the SOFIA device.
struct DemoRuns {
  sim::RunResult vanilla_clean;
  sim::RunResult vanilla_attacked;
  sim::RunResult sofia_clean;
  sim::RunResult sofia_attacked;
};

/// Mount `victim`'s code-reuse attack on both cores: one retarget-indirect
/// record overwriting its first data word with the gadget's address. The
/// demos seal with Alg. 1's per-word CTR.
DemoRuns code_reuse_demo(const char* victim, const crypto::KeySet& keys) {
  auto profile = pipeline::DeviceProfile::with_keys(keys);
  profile.granularity = crypto::Granularity::kPerWord;
  const campaign::Target target(victim, profile);
  const Mutation vanilla_smash{MutationKind::kRetargetIndirect, 0,
                               target.aim_vanilla("gadget")};
  const Mutation sofia_smash{MutationKind::kRetargetIndirect, 0,
                             target.aim("gadget")};
  return {target.execute_vanilla({}), target.execute_vanilla({vanilla_smash}),
          target.clean_run(), target.execute({sofia_smash})};
}

DemoRuns rop_demo(const crypto::KeySet& keys) {
  return code_reuse_demo(campaign::kRopVictim, keys);
}

DemoRuns jop_demo(const crypto::KeySet& keys) {
  return code_reuse_demo(campaign::kJopVictim, keys);
}

TEST(RopDemoTest, AttackSucceedsOnVanillaDetectedOnSofia) {
  const auto demo = rop_demo(test::test_keys());
  // Clean runs behave identically.
  ASSERT_TRUE(demo.vanilla_clean.ok());
  ASSERT_TRUE(demo.sofia_clean.ok());
  EXPECT_EQ(demo.vanilla_clean.output, "1111\n");
  EXPECT_EQ(demo.sofia_clean.output, "1111\n");
  // The unprotected core executes the gadget: the forbidden store fires.
  EXPECT_NE(demo.vanilla_attacked.output.find("6666"), std::string::npos);
  // SOFIA resets before the gadget's store can reach the MA stage.
  EXPECT_EQ(demo.sofia_attacked.status, sim::RunResult::Status::kReset);
  EXPECT_EQ(demo.sofia_attacked.output.find("6666"), std::string::npos);
}

TEST(JopDemoTest, TableCorruptionTrappedByDevirtualizedDispatch) {
  const auto demo = jop_demo(test::test_keys());
  ASSERT_TRUE(demo.vanilla_clean.ok());
  ASSERT_TRUE(demo.sofia_clean.ok());
  EXPECT_EQ(demo.vanilla_clean.output, demo.sofia_clean.output);
  // Vanilla: the corrupted pointer dispatches straight into the gadget.
  EXPECT_NE(demo.vanilla_attacked.output.find("7777"), std::string::npos);
  // SOFIA: the compare chain finds no listed target and falls into the
  // halt trap — the gadget never runs, nothing is printed.
  EXPECT_EQ(demo.sofia_attacked.status, sim::RunResult::Status::kHalted);
  EXPECT_EQ(demo.sofia_attacked.output.find("7777"), std::string::npos);
  EXPECT_TRUE(demo.sofia_attacked.output.empty());
}

/// Every run of both demos, under the test keys and the paper's RECTANGLE-80
/// example keys, folded into test::run_digest. Recorded before the demos
/// moved onto campaign::Target; any change to a demo's victim, record,
/// profile or budget shows here.
constexpr struct {
  const char* label;
  std::uint64_t digest;
} kDemoDigests[] = {
    {"rop/SPECK-64/128/vanilla-clean", 0xa267b8e27e4db417ull},
    {"rop/SPECK-64/128/vanilla-attacked", 0x2c7bd82a5d80f7aaull},
    {"rop/SPECK-64/128/sofia-clean", 0x5606041b19db5233ull},
    {"rop/SPECK-64/128/sofia-attacked", 0x734a1478f57ff08full},
    {"jop/SPECK-64/128/vanilla-clean", 0xc6b758ce9a62809dull},
    {"jop/SPECK-64/128/vanilla-attacked", 0x23676dc28bb955ccull},
    {"jop/SPECK-64/128/sofia-clean", 0xe199299cbeb5a69cull},
    {"jop/SPECK-64/128/sofia-attacked", 0xa37ac72b3e7c4adfull},
    {"rop/RECTANGLE-80/vanilla-clean", 0xa267b8e27e4db417ull},
    {"rop/RECTANGLE-80/vanilla-attacked", 0x2c7bd82a5d80f7aaull},
    {"rop/RECTANGLE-80/sofia-clean", 0x5606041b19db5233ull},
    {"rop/RECTANGLE-80/sofia-attacked", 0x734a1478f57ff08full},
    {"jop/RECTANGLE-80/vanilla-clean", 0xc6b758ce9a62809dull},
    {"jop/RECTANGLE-80/vanilla-attacked", 0x23676dc28bb955ccull},
    {"jop/RECTANGLE-80/sofia-clean", 0xe199299cbeb5a69cull},
    {"jop/RECTANGLE-80/sofia-attacked", 0xa37ac72b3e7c4adfull},
};

TEST_F(Attacks, CodeReuseDemosMatchTheRecordedDigests) {
  std::vector<std::pair<std::string, sim::RunResult>> runs;
  for (const auto& keys :
       {test::test_keys(),
        crypto::KeySet::example(crypto::CipherKind::kRectangle80)}) {
    const std::string cipher(crypto::to_string(keys.kind));
    for (const auto& [name, demo] :
         {std::pair{"rop", rop_demo(keys)}, std::pair{"jop", jop_demo(keys)}}) {
      const std::string row = std::string(name) + "/" + cipher + "/";
      runs.emplace_back(row + "vanilla-clean", demo.vanilla_clean);
      runs.emplace_back(row + "vanilla-attacked", demo.vanilla_attacked);
      runs.emplace_back(row + "sofia-clean", demo.sofia_clean);
      runs.emplace_back(row + "sofia-attacked", demo.sofia_attacked);
    }
  }
  ASSERT_EQ(runs.size(), std::size(kDemoDigests));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const std::uint64_t got = test::run_digest(runs[i].second);
    char line[96];
    std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxull},",
                  runs[i].first.c_str(), static_cast<unsigned long long>(got));
    EXPECT_EQ(runs[i].first, kDemoDigests[i].label);
    EXPECT_EQ(got, kDemoDigests[i].digest) << line;
  }
}

// ---------------------------------------------------------------------------
// Forgery cost (§IV-A-1 and §IV-A-2).
// ---------------------------------------------------------------------------

TEST(Forgery, PaperSiNumberReproduced) {
  // 64-bit MAC, 8 cycles per trial, 50 MHz -> 46,795 years.
  const double years = forgery_years(64, 8, 50e6);
  EXPECT_NEAR(years, 46795.0, 1.0);
}

TEST(Forgery, PaperCfiNumberReproduced) {
  // Control-flow diversion (8 cycles) + MAC verification (8 cycles).
  const double years = forgery_years(64, 16, 50e6);
  EXPECT_NEAR(years, 93590.0, 2.0);
}

TEST(Forgery, ExpectedTrialsLaw) {
  EXPECT_DOUBLE_EQ(expected_forgery_trials(8), 128.0);
  EXPECT_DOUBLE_EQ(expected_forgery_trials(16), 32768.0);
  EXPECT_DOUBLE_EQ(expected_forgery_trials(64), std::ldexp(1.0, 63));
}

TEST(Forgery, MonteCarloMatchesLawAt8Bits) {
  Rng rng(99);
  const auto exp = run_forgery_experiment(test::test_keys(), 8, 4000, rng);
  // Mean of a uniform 8-bit tag + 1 is 128.5; allow ~5% tolerance.
  EXPECT_NEAR(exp.mean_trials, exp.expected_trials, exp.expected_trials * 0.05);
}

TEST(Forgery, MonteCarloMatchesLawAt12Bits) {
  Rng rng(123);
  const auto exp = run_forgery_experiment(test::test_keys(), 12, 4000, rng);
  EXPECT_NEAR(exp.mean_trials, exp.expected_trials, exp.expected_trials * 0.06);
}

TEST(Forgery, DetectionRateApproachesOneMinusTwoToMinusN) {
  Rng rng(5);
  const auto exp = run_detection_experiment(test::test_keys(), 8, 20000, rng);
  // Expected undetected fraction 2^-8 = 0.39%; allow 3x.
  EXPECT_LT(static_cast<double>(exp.undetected) / exp.trials, 3.0 / 256);
  EXPECT_GT(exp.detection_rate, 0.98);
}

TEST(Forgery, FullTagDetectionPerfectInPractice) {
  Rng rng(6);
  const auto exp = run_detection_experiment(test::test_keys(), 64, 5000, rng);
  EXPECT_EQ(exp.undetected, 0u);
}

}  // namespace
}  // namespace sofia::security
