// Tests for the staged toolchain facade (src/pipeline/): DeviceProfile as
// the single source of truth for cipher/keys/policy/granularity, and the
// Pipeline session object's lazy cached stages, uniform error context and
// measurement semantics.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <unistd.h>

#include "assembler/image_io.hpp"
#include "pipeline/pipeline.hpp"
#include "support/error.hpp"

namespace sofia::pipeline {
namespace {

const char* kSource = R"(
main:
  li r1, 5
  li r2, 0
loop:
  add r2, r2, r1
  addi r1, r1, -1
  bnez r1, loop
  li r10, 0xFFFF0008
  sw r2, 0(r10)
  halt
)";

// ---------------------------------------------------------------------------
// DeviceProfile
// ---------------------------------------------------------------------------

TEST(DeviceProfile, PaperDefaultMatchesTheHardware) {
  const auto p = DeviceProfile::paper_default();
  EXPECT_EQ(p.cipher, crypto::CipherKind::kRectangle80);
  EXPECT_EQ(p.key_source, KeySource::kExample);
  EXPECT_EQ(p.granularity, crypto::Granularity::kPerPair);
  EXPECT_EQ(p.policy, xform::BlockPolicy::paper_default());
}

TEST(DeviceProfile, ParseCipherNames) {
  EXPECT_EQ(DeviceProfile::parse("rectangle80").cipher,
            crypto::CipherKind::kRectangle80);
  EXPECT_EQ(DeviceProfile::parse("RECTANGLE-80").cipher,
            crypto::CipherKind::kRectangle80);
  EXPECT_EQ(DeviceProfile::parse("speck64").cipher,
            crypto::CipherKind::kSpeck64_128);
  EXPECT_EQ(DeviceProfile::parse("SPECK-64/128").cipher,
            crypto::CipherKind::kSpeck64_128);
  EXPECT_THROW(DeviceProfile::parse("des"), Error);
  // The error names the accepted spellings.
  try {
    DeviceProfile::parse("des");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rectangle80"), std::string::npos);
  }
}

TEST(DeviceProfile, SeededKeysAreDeterministic) {
  const auto a = DeviceProfile::from_seed(crypto::CipherKind::kRectangle80, 5);
  const auto b = DeviceProfile::from_seed(crypto::CipherKind::kRectangle80, 5);
  const auto c = DeviceProfile::from_seed(crypto::CipherKind::kRectangle80, 6);
  EXPECT_EQ(a.keys().k1, b.keys().k1);
  EXPECT_EQ(a.keys().omega, b.keys().omega);
  EXPECT_NE(a.keys().k1, c.keys().k1);
}

TEST(DeviceProfile, OmegaOverrideApplies) {
  auto p = DeviceProfile::paper_default();
  const auto original = p.keys().omega;
  p.omega_override = original ^ 0x1234;
  EXPECT_EQ(p.keys().omega, original ^ 0x1234);
}

TEST(DeviceProfile, ConfigureStampsKeysAndPolicy) {
  auto p = DeviceProfile::example(crypto::CipherKind::kSpeck64_128);
  p.policy = xform::BlockPolicy::small_unrestricted();
  sim::SimConfig config;
  p.configure(config);
  EXPECT_EQ(config.keys.kind, crypto::CipherKind::kSpeck64_128);
  EXPECT_EQ(config.policy, xform::BlockPolicy::small_unrestricted());
  // The toolchain view agrees with the device view.
  const auto opts = p.transform_options();
  EXPECT_EQ(opts.policy, config.policy);
  EXPECT_EQ(opts.granularity, p.granularity);
}

TEST(DeviceProfile, FingerprintAndJsonNameEveryAxis) {
  const auto p = DeviceProfile::from_seed(crypto::CipherKind::kSpeck64_128, 9);
  const auto fp = p.fingerprint();
  EXPECT_NE(fp.find("cipher=SPECK-64/128"), std::string::npos) << fp;
  EXPECT_NE(fp.find("keys=seed:9"), std::string::npos) << fp;
  EXPECT_NE(fp.find("gran=per-pair"), std::string::npos) << fp;
  EXPECT_NE(fp.find("policy=8/4"), std::string::npos) << fp;
  const auto doc = p.to_json();
  EXPECT_NE(doc.find("\"cipher\":\"SPECK-64/128\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"keys\":\"seed\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"key_seed\":9"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"words_per_block\":8"), std::string::npos) << doc;
}

// ---------------------------------------------------------------------------
// Pipeline sessions
// ---------------------------------------------------------------------------

TEST(Pipeline, StagesAreLazyAndCached) {
  auto p = Pipeline::from_source(kSource);
  const auto* prog = &p.program();
  EXPECT_EQ(&p.program(), prog);  // same object, not re-assembled
  const auto* hard = &p.hardened();
  EXPECT_EQ(&p.hardened(), hard);
  EXPECT_EQ(&p.image(), &hard->image);
  const auto* run = &p.run();
  EXPECT_EQ(&p.run(), run);
}

TEST(Pipeline, VanillaAndSofiaAgree) {
  auto p = Pipeline::from_source(kSource);
  EXPECT_TRUE(p.run_vanilla().ok());
  EXPECT_TRUE(p.run().ok());
  EXPECT_EQ(p.run_vanilla().output, "15\n");
  EXPECT_EQ(p.run().output, "15\n");
}

TEST(Pipeline, MeasureValidatesAndFillsTheRecord) {
  auto p = Pipeline::from_workload("fib", 1, 8);
  const auto m = p.measure();
  EXPECT_EQ(m.name, "fib");
  EXPECT_GT(m.sofia_text_bytes, m.vanilla_text_bytes);
  EXPECT_GT(m.sofia_cycles, m.vanilla_cycles);
  EXPECT_GT(m.cycle_overhead_pct(), 0.0);
}

// The overhead arithmetic every sweep record and paper table is built on.
TEST(Measure, OverheadArithmetic) {
  Measurement m;
  m.vanilla_text_bytes = 100;
  m.sofia_text_bytes = 250;
  m.vanilla_cycles = 1000;
  m.sofia_cycles = 1500;
  EXPECT_DOUBLE_EQ(m.size_ratio(), 2.5);
  EXPECT_DOUBLE_EQ(m.cycle_overhead_pct(), 50.0);
}

TEST(Measure, TimeOverheadUsesHwClocks) {
  Measurement m;
  m.vanilla_cycles = 1000;
  m.sofia_cycles = 1000;
  // Equal cycle counts: the whole execution-time overhead is the clock
  // ratio of the hardware model (92.3 MHz vanilla vs the SOFIA clock).
  const hw::HwModel model;
  const double expected = hw::overhead_pct(model.sofia(2).clock_mhz,
                                           model.vanilla().clock_mhz);
  EXPECT_NEAR(m.time_overhead_pct(model, 2), expected, 1e-9);
}

TEST(Pipeline, MeasureMatchesTheSourceSessionWithoutGolden) {
  // No golden model: measure() checks the two cores against each other.
  auto p = Pipeline::from_source(kSource);
  EXPECT_FALSE(p.has_expected_output());
  const auto m = p.measure();
  EXPECT_GT(m.sofia_cycles, m.vanilla_cycles);
}

TEST(Pipeline, MeasureThrowsOnGoldenMismatch) {
  auto spec = workloads::workload("fib");
  spec.golden = [](std::uint64_t, std::uint32_t) { return std::string("bogus"); };
  auto p = Pipeline::from_workload(spec, 1, 8);
  try {
    p.measure();
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pipeline[fib]/measure"), std::string::npos) << what;
  }
}

TEST(Pipeline, ErrorsCarryStageAndSessionContext) {
  auto p = Pipeline::from_source("this is not sr32", DeviceProfile::paper_default(),
                                 "bad-program");
  try {
    p.program();
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pipeline[bad-program]/program:"), std::string::npos)
        << what;
  }
  EXPECT_THROW(Pipeline::from_source_file("/nonexistent/x.s"), Error);
  EXPECT_THROW(Pipeline::from_image_file("/nonexistent/x.img"), Error);
  EXPECT_THROW(Pipeline::from_workload("no_such_workload", 1, 8), Error);
}

TEST(Pipeline, ImageSessionsRunButHaveNoToolchainStages) {
  auto builder = Pipeline::from_source(kSource);
  const std::string path =
      "/tmp/sofia_pipeline_test_" + std::to_string(getpid()) + ".img";
  assembler::save_image(builder.image(), path);

  auto p = Pipeline::from_image_file(path);
  EXPECT_TRUE(p.image().sofia);
  EXPECT_TRUE(p.run().ok());
  EXPECT_EQ(p.run().output, "15\n");
  try {
    p.program();
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no source available"),
              std::string::npos);
  }
  EXPECT_THROW(p.hardened(), Error);
  std::remove(path.c_str());
}

TEST(Pipeline, CipherMismatchIsAnArchitecturalResetNotACrash) {
  // Transform with Speck64 keys, run under the (default) RECTANGLE-80
  // profile: the device decrypts garbage and must pull the reset line on
  // the first block's MAC check — the paper's §II-B behavior.
  auto speck = Pipeline::from_source(
      kSource, DeviceProfile::example(crypto::CipherKind::kSpeck64_128));
  auto wrong_device = Pipeline::from_image(speck.image());
  const auto& run = wrong_device.run();
  EXPECT_EQ(run.status, sim::RunResult::Status::kReset);
  EXPECT_EQ(run.reset.cause, sim::ResetCause::kMacMismatch);
}

TEST(Pipeline, TamperedImageResets) {
  auto p = Pipeline::from_source(kSource);
  auto tampered = p.image();
  tampered.text.at(3) ^= 1u;
  const auto run = p.run_image(tampered);
  EXPECT_EQ(run.status, sim::RunResult::Status::kReset);
}

TEST(Pipeline, SimConfigChangesInvalidateCachedRuns) {
  auto p = Pipeline::from_source(kSource);
  const auto cycles_before = p.run().stats.cycles;
  sim::SimConfig slow;
  slow.icache.size_bytes = 128;  // much smaller cache -> more misses
  p.set_sim_config(slow);
  EXPECT_GE(p.run().stats.cycles, cycles_before);
  // The hardened image itself was not invalidated by a sim-side change.
  EXPECT_TRUE(p.run().ok());
}

TEST(Pipeline, SeededProfileRoundTripsThroughTheDevice) {
  const auto profile = DeviceProfile::from_seed(crypto::CipherKind::kSpeck64_128, 42);
  auto p = Pipeline::from_source(kSource, profile);
  EXPECT_TRUE(p.run().ok());
  EXPECT_EQ(p.run().output, "15\n");
  // A device with a different seed must reset.
  auto other = Pipeline::from_image(
      p.image(), DeviceProfile::from_seed(crypto::CipherKind::kSpeck64_128, 43));
  EXPECT_EQ(other.run().status, sim::RunResult::Status::kReset);
}

}  // namespace
}  // namespace sofia::pipeline
