// Cross-validation of the execution backends (src/sim/backend.hpp): the
// registry contract, and the load-bearing property that the "functional"
// backend is architecturally indistinguishable from the cycle-accurate
// machine — same exit state, same console output, same instruction-level
// counters on clean runs, and the same reset-on-tamper behavior — for
// every registered workload under every cipher.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/mutation.hpp"
#include "pipeline/pipeline.hpp"
#include "random_program.hpp"
#include "reference_interp.hpp"
#include "scheme/scheme.hpp"
#include "sim/backend.hpp"
#include "sim/cycle_backend.hpp"
#include "sim/functional_backend.hpp"
#include "sim/remote_backend.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sofia {
namespace {

using pipeline::DeviceProfile;
using pipeline::Pipeline;

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

DeviceProfile functional_profile(DeviceProfile profile = DeviceProfile::paper_default()) {
  profile.backend = "functional";
  return profile;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(BackendRegistry, ListsCycleFirstThenFunctionalThenRemote) {
  const auto names = sim::backend_names();
  ASSERT_GE(names.size(), 3u);
  EXPECT_EQ(names[0], "cycle");  // the default every DeviceProfile starts with
  EXPECT_EQ(names[1], "functional");
  EXPECT_EQ(names[2], "remote");
  EXPECT_EQ(sim::kDefaultBackend, "cycle");
  for (const auto& name : names) EXPECT_TRUE(sim::is_backend(name)) << name;
  EXPECT_FALSE(sim::is_backend("warp"));
}

TEST(BackendRegistry, MakeBackendRoundTripsAndRejectsUnknown) {
  for (const auto& entry : sim::backend_registry()) {
    const auto backend = sim::make_backend(entry.name);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->name(), entry.name);
    // The registry row and the instance share one description string.
    EXPECT_EQ(backend->describe(), entry.description);
  }
  try {
    sim::make_backend("warp");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("warp"), std::string::npos) << what;
    EXPECT_NE(what.find("cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("functional"), std::string::npos) << what;
  }
}

TEST(BackendRegistry, CapabilitiesDistinguishTimingFidelity) {
  const auto cycle = sim::make_backend("cycle");
  EXPECT_TRUE(cycle->capabilities().cycle_accurate);
  EXPECT_TRUE(cycle->capabilities().models_microarchitecture);
  const auto functional = sim::make_backend("functional");
  EXPECT_FALSE(functional->capabilities().cycle_accurate);
  EXPECT_FALSE(functional->capabilities().models_microarchitecture);
}

TEST(BackendRegistry, DeviceProfileParsesAndFingerprintsTheBackend) {
  EXPECT_EQ(DeviceProfile::parse_backend("functional"), "functional");
  // Exact-match grammar, identical to the CLI --backend choice flags.
  EXPECT_THROW(DeviceProfile::parse_backend("FUNCTIONAL"), Error);
  EXPECT_THROW(DeviceProfile::parse_backend("warp"), Error);
  const auto p = functional_profile();
  EXPECT_NE(p.fingerprint().find("backend=functional"), std::string::npos)
      << p.fingerprint();
  EXPECT_NE(p.to_json().find("\"backend\":\"functional\""), std::string::npos)
      << p.to_json();
}

TEST(BackendRegistry, PipelineRejectsUnknownBackendWithContext) {
  auto profile = DeviceProfile::paper_default();
  profile.backend = "warp";
  auto p = Pipeline::from_source(kSource, profile, "bad-backend");
  try {
    p.run();
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pipeline[bad-backend]/backend:"), std::string::npos)
        << what;
    EXPECT_NE(what.find("warp"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Cross-validation: functional == cycle, architecturally
// ---------------------------------------------------------------------------

void expect_same_architectural_outcome(const sim::RunResult& cycle,
                                       const sim::RunResult& functional,
                                       const std::string& label) {
  ASSERT_EQ(cycle.status, functional.status) << label;
  EXPECT_EQ(cycle.exit_code, functional.exit_code) << label;
  EXPECT_EQ(cycle.output, functional.output) << label;
  EXPECT_EQ(cycle.fault, functional.fault) << label;
  EXPECT_EQ(cycle.reset.cause, functional.reset.cause) << label;
  EXPECT_EQ(cycle.reset.pc, functional.reset.pc) << label;
  // The committed instruction stream is identical, so the architectural
  // counters must agree exactly — only timing-derived numbers may differ.
  EXPECT_EQ(cycle.stats.insts, functional.stats.insts) << label;
  EXPECT_EQ(cycle.stats.nops, functional.stats.nops) << label;
  EXPECT_EQ(cycle.stats.loads, functional.stats.loads) << label;
  EXPECT_EQ(cycle.stats.stores, functional.stats.stores) << label;
  EXPECT_EQ(cycle.stats.branches, functional.stats.branches) << label;
  EXPECT_EQ(cycle.stats.taken, functional.stats.taken) << label;
}

TEST(BackendCrossValidation, EveryWorkloadEveryCipherAgrees) {
  // The acceptance matrix: all registered workloads x both ciphers must
  // produce identical architectural results through Pipeline on both
  // backends (sizes scaled down to keep the suite fast).
  for (const auto& spec : workloads::all_workloads()) {
    const std::uint32_t size = std::max(4u, spec.default_size / 16);
    for (const auto kind :
         {crypto::CipherKind::kRectangle80, crypto::CipherKind::kSpeck64_128}) {
      const std::string label =
          spec.name + " / " + std::string(crypto::to_string(kind));
      auto cyc = Pipeline::from_workload(spec, 1, size,
                                         DeviceProfile::example(kind));
      auto fn = Pipeline::from_workload(
          spec, 1, size, functional_profile(DeviceProfile::example(kind)));
      ASSERT_TRUE(cyc.run().ok()) << label;
      expect_same_architectural_outcome(cyc.run(), fn.run(), label);
      // The golden model agrees too (measure() throws on any mismatch).
      EXPECT_NO_THROW(fn.measure()) << label;
    }
  }
}

TEST(BackendCrossValidation, VanillaRunsAgree) {
  for (const char* name : {"fib", "crc32"}) {
    const auto& spec = workloads::workload(name);
    const std::uint32_t size = std::max(4u, spec.default_size / 16);
    auto cyc = Pipeline::from_workload(spec, 1, size);
    auto fn = Pipeline::from_workload(spec, 1, size, functional_profile());
    expect_same_architectural_outcome(cyc.run_vanilla(), fn.run_vanilla(),
                                      name);
  }
}

TEST(BackendCrossValidation, PerWordGranularityAgrees) {
  auto profile = DeviceProfile::paper_default();
  profile.granularity = crypto::Granularity::kPerWord;
  auto cyc = Pipeline::from_source(kSource, profile);
  auto fn = Pipeline::from_source(kSource, functional_profile(profile));
  ASSERT_TRUE(cyc.run().ok());
  expect_same_architectural_outcome(cyc.run(), fn.run(), "per-word");
}

TEST(BackendCrossValidation, SmallUnrestrictedPolicyAgrees) {
  auto profile = DeviceProfile::paper_default();
  profile.policy = xform::BlockPolicy::small_unrestricted();
  auto cyc = Pipeline::from_source(kSource, profile);
  auto fn = Pipeline::from_source(kSource, functional_profile(profile));
  ASSERT_TRUE(cyc.run().ok());
  expect_same_architectural_outcome(cyc.run(), fn.run(), "small-policy");
}

TEST(BackendCrossValidation, RandomProgramsAgree) {
  // Property-based differential check: random (terminating) SR32 programs
  // with loops, calls, forward branches and memory traffic must be
  // indistinguishable across backends, on both the SOFIA and vanilla core.
  Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    const std::string source = test::random_program(rng);
    const std::string label = "trial " + std::to_string(trial);
    auto cyc = Pipeline::from_source(source);
    auto fn = Pipeline::from_source(source, functional_profile());
    ASSERT_TRUE(cyc.run().ok()) << label;
    expect_same_architectural_outcome(cyc.run(), fn.run(), label);
    expect_same_architectural_outcome(cyc.run_vanilla(), fn.run_vanilla(),
                                      label + " (vanilla)");
  }
}

// ---------------------------------------------------------------------------
// Instruction semantics, pinned on both backends
// ---------------------------------------------------------------------------

/// One small program per corner of the SR32 semantics, with the outcome it
/// must produce.
struct SemanticsCase {
  const char* name;
  const char* source;
  sim::RunResult::Status status;
  const char* output;
  int exit_code = 0;
  const char* fault = "";
};

const SemanticsCase kSemanticsCases[] = {
    {"signed_vs_unsigned", R"(
main:
  li r10, 0xFFFF0008
  li r1, -8
  li r2, 3
  slt r3, r1, r2
  sw r3, 0(r10)
  sltu r3, r1, r2
  sw r3, 0(r10)
  slti r3, r1, -7
  sw r3, 0(r10)
  sltiu r3, r1, 5
  sw r3, 0(r10)
  sra r3, r1, r2
  sw r3, 0(r10)
  srl r3, r1, r2
  sw r3, 0(r10)
  srai r3, r1, 2
  sw r3, 0(r10)
  srli r3, r1, 28
  sw r3, 0(r10)
  halt
)",
     sim::RunResult::Status::kHalted, "1\n0\n1\n0\n-1\n536870911\n-2\n15\n"},
    {"sub_word_loads_and_stores", R"(
main:
  li r10, 0xFFFF0008
  la r4, buf
  lh r3, 0(r4)
  sw r3, 0(r10)
  lhu r3, 0(r4)
  sw r3, 0(r10)
  lb r3, 2(r4)
  sw r3, 0(r10)
  lbu r3, 2(r4)
  sw r3, 0(r10)
  li r5, 0x1234
  sh r5, 4(r4)
  li r6, 0x77
  sb r6, 7(r4)
  lw r3, 4(r4)
  sw r3, 0(r10)
  halt
.data
buf: .word 0x7F80FF85
  .word 0xAAAAAAAA
)",
     sim::RunResult::Status::kHalted, "-123\n65413\n-128\n128\n2007634484\n"},
    {"exit_and_putint", R"(
main:
  li r10, 0xFFFF0008
  li r1, -42
  sw r1, 0(r10)
  li r11, 0xFFFF0000
  li r2, 72
  sw r2, 0(r11)
  li r12, 0xFFFF0004
  li r3, 7
  sw r3, 0(r12)
  sw r3, 0(r10)
  halt
)",
     sim::RunResult::Status::kExited, "-42\nH", 7},
    {"misaligned_lw", R"(
main:
  la r4, buf
  lw r3, 1(r4)
  halt
.data
buf: .word 0, 0
)",
     sim::RunResult::Status::kFault, "", 0, "misaligned lw"},
    {"misaligned_lh", R"(
main:
  la r4, buf
  lh r3, 1(r4)
  halt
.data
buf: .word 0, 0
)",
     sim::RunResult::Status::kFault, "", 0, "misaligned lh"},
    {"misaligned_sw", R"(
main:
  la r4, buf
  sw r3, 2(r4)
  halt
.data
buf: .word 0, 0
)",
     sim::RunResult::Status::kFault, "", 0, "misaligned sw"},
    {"misaligned_sh", R"(
main:
  la r4, buf
  sh r3, 1(r4)
  halt
.data
buf: .word 0, 0
)",
     sim::RunResult::Status::kFault, "", 0, "misaligned sh"},
    {"load_from_mmio", R"(
main:
  li r10, 0xFFFF0008
  li r1, 5
  sw r1, 0(r10)
  li r4, 0xFFFF0000
  lw r3, 0(r4)
  halt
)",
     sim::RunResult::Status::kFault, "5\n", 0, "load from MMIO region"},
    {"store_to_unmapped_mmio", R"(
main:
  li r4, 0xFFFF000C
  sw r3, 0(r4)
  halt
)",
     sim::RunResult::Status::kFault, "", 0, "store to unmapped MMIO address"},
};

void expect_outcome(const SemanticsCase& c, const sim::RunResult& run,
                    const std::string& label) {
  EXPECT_EQ(run.status, c.status) << label << ": " << run.fault;
  EXPECT_EQ(run.output, c.output) << label;
  EXPECT_EQ(run.exit_code, c.exit_code) << label;
  EXPECT_EQ(run.fault, c.fault) << label;
}

class BackendSemantics : public ::testing::TestWithParam<SemanticsCase> {};

TEST_P(BackendSemantics, SameOutcomeOnBothBackendsAndBothCores) {
  const SemanticsCase& c = GetParam();
  auto cyc = Pipeline::from_source(c.source);
  auto fn = Pipeline::from_source(c.source, functional_profile());
  expect_outcome(c, cyc.run(), "cycle sofia");
  expect_outcome(c, fn.run(), "functional sofia");
  expect_outcome(c, cyc.run_vanilla(), "cycle vanilla");
  expect_outcome(c, fn.run_vanilla(), "functional vanilla");
  expect_same_architectural_outcome(cyc.run(), fn.run(), "sofia");
  expect_same_architectural_outcome(cyc.run_vanilla(), fn.run_vanilla(),
                                    "vanilla");
  // The independent oracle has no fault model; it checks the rest.
  if (c.status == sim::RunResult::Status::kFault) return;
  const auto ref = test::reference_run(cyc.vanilla_image());
  EXPECT_TRUE(ref.halted);
  EXPECT_EQ(ref.output, c.output);
  EXPECT_EQ(ref.exit_code, c.exit_code);
  EXPECT_EQ(ref.executed, cyc.run_vanilla().stats.insts);
}

INSTANTIATE_TEST_SUITE_P(Core, BackendSemantics,
                         ::testing::ValuesIn(kSemanticsCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// ---------------------------------------------------------------------------
// Integrity semantics: tamper and fault still reset
// ---------------------------------------------------------------------------

TEST(BackendCrossValidation, TamperedTextResetsIdenticallyUnderBothBackends) {
  auto builder = Pipeline::from_source(kSource);
  auto tampered = builder.image();
  tampered.text.at(3) ^= 1u;  // inside the entry block: reached by both
  const auto cyc = builder.run_image(tampered);
  auto fn_session = Pipeline::from_image(tampered, functional_profile());
  const auto& fn = fn_session.run();
  ASSERT_EQ(cyc.status, sim::RunResult::Status::kReset);
  ASSERT_EQ(fn.status, sim::RunResult::Status::kReset);
  EXPECT_EQ(cyc.reset.cause, fn.reset.cause);
  EXPECT_EQ(cyc.reset.cause, sim::ResetCause::kMacMismatch);
  EXPECT_EQ(cyc.reset.pc, fn.reset.pc);
}

TEST(BackendCrossValidation, SelfModifyingStoreToTextResetsUnderBothBackends) {
  // A program that tampers its own ciphertext at run time and then enters
  // the modified block. The cycle machine fetches live from memory and
  // resets on the bad MAC; the functional backend must invalidate its
  // decoded-block cache on the store-to-text and reset identically — and
  // must keep executing the in-flight block safely until then (this test
  // runs under the ASan CI job precisely to police that invalidation path).
  // Pass 0 calls victim cleanly (the functional backend caches the verified
  // block under this exact (entry, prevPC) pair), then flips one ciphertext
  // bit inside victim and loops to the very same call site. A stale cache
  // hit would sail through to the halt at `missed`; correct invalidation
  // refetches and resets on the bad MAC.
  const char* source = R"(
main:
  li r5, 0
  la r10, victim
loop:
  call victim
  bnez r5, missed
  li r5, 1
  lw r11, 0(r10)
  xori r11, r11, 1
  sw r11, 0(r10)
  j loop
missed:
  halt
victim:
  ret
)";
  auto cyc_session = Pipeline::from_source(source);
  const auto& cyc = cyc_session.run();
  auto fn_session = Pipeline::from_source(source, functional_profile());
  const auto& fn = fn_session.run();
  ASSERT_EQ(cyc.status, sim::RunResult::Status::kReset);
  ASSERT_EQ(fn.status, sim::RunResult::Status::kReset);
  EXPECT_EQ(cyc.reset.cause, sim::ResetCause::kMacMismatch);
  EXPECT_EQ(fn.reset.cause, cyc.reset.cause);
  EXPECT_EQ(fn.reset.pc, cyc.reset.pc);
  // Every instruction before the tampering transfer still committed.
  EXPECT_EQ(fn.stats.insts, cyc.stats.insts);
  EXPECT_EQ(fn.stats.stores, cyc.stats.stores);
}

TEST(BackendCrossValidation, KeyMismatchResetsUnderBothBackends) {
  auto speck = Pipeline::from_source(
      kSource, DeviceProfile::example(crypto::CipherKind::kSpeck64_128));
  for (const char* backend : {"cycle", "functional"}) {
    auto profile = DeviceProfile::paper_default();
    profile.backend = backend;
    auto wrong_device = Pipeline::from_image(speck.image(), profile);
    EXPECT_EQ(wrong_device.run().status, sim::RunResult::Status::kReset)
        << backend;
    EXPECT_EQ(wrong_device.run().reset.cause, sim::ResetCause::kMacMismatch)
        << backend;
  }
}

TEST(BackendCrossValidation, FetchFaultInjectionResetsUnderBothBackends) {
  for (const char* backend : {"cycle", "functional"}) {
    auto profile = DeviceProfile::paper_default();
    profile.backend = backend;
    auto p = Pipeline::from_source(kSource, profile);
    sim::SimConfig config;
    config.fault.enabled = true;
    config.fault.fetch_index = 2;  // lands in the entry block on any backend
    config.fault.bit = 7;
    const auto run = p.run_image(p.image(), config);
    EXPECT_EQ(run.status, sim::RunResult::Status::kReset) << backend;
    EXPECT_EQ(run.reset.cause, sim::ResetCause::kMacMismatch) << backend;
  }
}

TEST(BackendCrossValidation, FetchFaultInARepeatedBlockEntryResetsIdentically) {
  // The loop takes no conditional branch until it exits (its back edge is
  // a direct jump, followed at decode), so until then neither backend
  // fetches a word the other does not, and a fetch index names the same
  // word on both. Each index of the first three and a half iterations is
  // faulted in turn, so faults land in blocks entered for the third and
  // fourth time — entries whose admission the cycle backend has memoised
  // and may reuse only if the fetched words still match.
  const char* source = R"(
main:
  li r1, 6
  li r2, 0
loop:
  beqz r1, done
  add r2, r2, r1
  addi r1, r1, -1
  j loop
done:
  li r10, 0xFFFF0008
  sw r2, 0(r10)
  halt
)";
  for (const auto& entry : scheme::scheme_registry()) {
    if (!entry.get().traits().authenticated) continue;
    const std::string name(entry.name);
    std::map<std::uint32_t, int> entries_faulted;  // reset pc -> entries
    int deepest_entry = 0;
    std::pair<std::uint32_t, std::uint64_t> previous{1, 0};  // no entry
    for (std::uint64_t index = 0; index < 60; ++index) {
      sim::RunResult runs[2];
      for (int i = 0; i < 2; ++i) {
        auto profile = DeviceProfile::paper_default();
        profile.scheme = name;
        profile.backend = i == 0 ? "cycle" : "functional";
        auto p = Pipeline::from_source(source, profile);
        sim::SimConfig config;
        config.fault.enabled = true;
        config.fault.fetch_index = index;
        config.fault.bit = 7;
        runs[i] = p.run_image(p.image(), config);
      }
      const sim::RunResult& cyc = runs[0];
      const sim::RunResult& fn = runs[1];
      const std::string label = name + " fetch " + std::to_string(index);
      ASSERT_EQ(fn.status, sim::RunResult::Status::kReset) << label;
      ASSERT_EQ(cyc.status, fn.status) << label;
      EXPECT_EQ(cyc.reset.cause, fn.reset.cause) << label;
      EXPECT_EQ(cyc.reset.pc, fn.reset.pc) << label;
      EXPECT_EQ(cyc.stats.insts, fn.stats.insts) << label;
      // The words of one block entry share (reset pc, insts); a new pair
      // is the next entry.
      const std::pair<std::uint32_t, std::uint64_t> at{fn.reset.pc,
                                                       fn.stats.insts};
      if (at != previous)
        deepest_entry =
            std::max(deepest_entry, ++entries_faulted[fn.reset.pc]);
      previous = at;
    }
    EXPECT_GE(deepest_entry, 3) << name;
  }
}

TEST(BackendCrossValidation, NullSchemeRunSurvivingAFetchFaultCachesAfterIt) {
  // Under the encryption-only scheme a faulted word decrypts to a flipped
  // plaintext bit and nothing detects it, so many faulted runs go on for
  // the whole loop. The fetch streams of both backends coincide until the
  // loop exits (see the test above), so both must agree on every run. Once
  // the fault has fired, the functional backend caches again: it opens
  // each (entry, prevPC) pair at most once more, and never reuses a block
  // it opened from the faulted word.
  const char* source = R"(
main:
  li r1, 40
  li r2, 0
loop:
  beqz r1, done
  add r2, r2, r1
  addi r1, r1, -1
  j loop
done:
  li r10, 0xFFFF0008
  sw r2, 0(r10)
  halt
)";
  auto profile = functional_profile();
  profile.scheme = "null";
  const auto clean = Pipeline::from_source(source, profile).run();
  ASSERT_TRUE(clean.ok());
  const std::uint64_t pairs = clean.stats.blocks_fetched;  // each opened once
  int survived = 0;
  for (const unsigned bit : {0u, 7u, 12u}) {
    for (std::uint64_t index = 0; index < 24; ++index) {
      sim::RunResult runs[2];
      for (int i = 0; i < 2; ++i) {
        profile.backend = i == 0 ? "cycle" : "functional";
        auto p = Pipeline::from_source(source, profile);
        sim::SimConfig config;
        config.fault.enabled = true;
        config.fault.fetch_index = index;
        config.fault.bit = bit;
        config.max_cycles = 100'000;
        runs[i] = p.run_image(p.image(), config);
      }
      const sim::RunResult& cyc = runs[0];
      const sim::RunResult& fn = runs[1];
      const std::string label =
          "fetch " + std::to_string(index) + " bit " + std::to_string(bit);
      ASSERT_EQ(cyc.status, fn.status) << label;
      if (fn.status == sim::RunResult::Status::kMaxCycles) continue;
      EXPECT_EQ(cyc.reset.cause, fn.reset.cause) << label;
      EXPECT_EQ(cyc.reset.pc, fn.reset.pc) << label;
      EXPECT_EQ(cyc.output, fn.output) << label;
      EXPECT_EQ(cyc.stats.insts, fn.stats.insts) << label;
      if (!fn.ok()) continue;
      ++survived;
      // Every entry up to the fault fetches at least one word; after it,
      // each pair is fetched once.
      EXPECT_LE(fn.stats.blocks_fetched, index + 1 + pairs) << label;
    }
  }
  EXPECT_GE(survived, 10);
}

// ---------------------------------------------------------------------------
// Functional-backend contract details
// ---------------------------------------------------------------------------

TEST(FunctionalBackend, CyclesAreTheInstructionCount) {
  auto p = Pipeline::from_source(kSource, functional_profile());
  const auto& run = p.run();
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.stats.cycles, run.stats.insts);
  // No micro-architecture is modelled.
  EXPECT_EQ(run.stats.icache_hits, 0u);
  EXPECT_EQ(run.stats.icache_misses, 0u);
}

TEST(FunctionalBackend, BlockCacheVerifiesEachEntryOnce) {
  // The loop body re-executes but decrypts and MAC-verifies only once per
  // distinct (entry, prevPC) pair — the source of the backend's speedup.
  auto p = Pipeline::from_source(kSource, functional_profile());
  const auto& fn = p.run();
  auto c = Pipeline::from_source(kSource);
  const auto& cyc = c.run();
  ASSERT_TRUE(fn.ok());
  EXPECT_LT(fn.stats.mac_verifications, cyc.stats.mac_verifications);
  EXPECT_GT(fn.stats.mac_verifications, 0u);
  EXPECT_LT(fn.stats.ctr_ops, cyc.stats.ctr_ops);
}

TEST(FunctionalBackend, MaxCyclesBoundsTheInstructionCount) {
  auto p = Pipeline::from_source(R"(
main:
  li r1, 1
loop:
  bnez r1, loop
  halt
)", functional_profile());
  sim::SimConfig config;
  config.max_cycles = 10'000;
  const auto run = p.run_image(p.image(), config);
  EXPECT_EQ(run.status, sim::RunResult::Status::kMaxCycles);
  EXPECT_LE(run.stats.insts, 10'000u);
}

TEST(FunctionalBackend, TraceRecordsTheArchitecturalStream) {
  auto p = Pipeline::from_source(kSource, functional_profile());
  sim::SimConfig config;
  config.collect_trace = true;
  const auto run = p.run_image(p.image(), config);
  ASSERT_TRUE(run.ok());
  ASSERT_FALSE(run.trace.empty());
  EXPECT_EQ(run.trace.size(), run.stats.insts);
}

// ---------------------------------------------------------------------------
// Block store: opened blocks outlive a run (sim/admission.hpp)
// ---------------------------------------------------------------------------

/// "" when two runs agree on every observable, else the first difference.
std::string run_diff(const sim::RunResult& got, const sim::RunResult& want) {
  if (got.status != want.status)
    return std::string("status ") + std::string(to_string(got.status)) +
           " vs " + std::string(to_string(want.status));
  if (got.reset.cause != want.reset.cause) return "reset cause";
  if (got.reset.pc != want.reset.pc || got.reset.cycle != want.reset.cycle)
    return "reset pc/cycle";
  if (got.exit_code != want.exit_code) return "exit code";
  if (got.stats.insts != want.stats.insts) return "insts";
  if (got.output != want.output) return "output";
  if (!(got.stats == want.stats)) return "stats";
  return "";
}

const sim::BlockStore& store_of(const Pipeline& p) {
  if (const auto* fn = dynamic_cast<const sim::FunctionalBackend*>(&p.backend()))
    return fn->block_store();
  return dynamic_cast<const sim::CycleAccurateBackend&>(p.backend())
      .block_store();
}

struct StoreTrial {
  std::string name;
  assembler::LoadImage image;
  sim::SimConfig config;
};

/// A session's clean image, the same with one bit flipped, the clean image
/// under a fetch fault, and the program sealed under another omega.
std::vector<StoreTrial> store_trials(const DeviceProfile& profile) {
  const auto clean = Pipeline::from_source(kSource, profile).image();
  auto tampered = clean;
  tampered.text[9] ^= 1u << 4;
  sim::SimConfig faulted;
  faulted.fault.enabled = true;
  faulted.fault.fetch_index = 11;
  faulted.fault.bit = 5;
  auto donor_profile = profile;
  donor_profile.omega_override = 0x0BAD;
  return {{"clean", clean, {}},
          {"tampered", tampered, {}},
          {"faulted", clean, faulted},
          {"clean again", clean, {}},
          {"donor omega",
           Pipeline::from_source(kSource, donor_profile).image(),
           {}}};
}

TEST(BlockStore, RunsOnASharedSessionEqualFreshSessions) {
  for (const char* backend : {"cycle", "functional"}) {
    auto profile = DeviceProfile::paper_default();
    profile.backend = backend;
    const auto shared = Pipeline::from_source(kSource, profile);
    std::size_t stored = 0;
    for (const auto& trial : store_trials(profile)) {
      const std::string label = std::string(backend) + " " + trial.name;
      const auto fresh = Pipeline::from_source(kSource, profile)
                             .run_image(trial.image, trial.config);
      const bool detected = trial.name == "tampered" || trial.name == "faulted";
      EXPECT_EQ(fresh.status == sim::RunResult::Status::kReset, detected)
          << label;
      if (trial.name == "donor omega") stored = store_of(shared).size();
      EXPECT_EQ(run_diff(shared.run_image(trial.image, trial.config), fresh), "")
          << label;
    }
    // The clean run filled the store; the donor image bypassed it.
    EXPECT_GT(stored, 0u) << backend;
    EXPECT_EQ(store_of(shared).size(), stored) << backend;
  }
}

TEST(BlockStore, ConcurrentRunsOnASharedSessionEqualFreshSessions) {
  for (const char* backend : {"cycle", "functional"}) {
    auto profile = DeviceProfile::paper_default();
    profile.backend = backend;
    const auto trials = store_trials(profile);
    std::vector<sim::RunResult> want;
    for (const auto& trial : trials)
      want.push_back(Pipeline::from_source(kSource, profile)
                         .run_image(trial.image, trial.config));
    // Four threads race to bind the store and fill its slots, each walking
    // the trials in its own order.
    const auto shared = Pipeline::from_source(kSource, profile);
    std::vector<std::string> failures(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < failures.size(); ++t)
      threads.emplace_back([&, t] {
        for (std::size_t rep = 0; rep < 6 * trials.size(); ++rep) {
          const std::size_t i = (t * 3 + rep * (t + 1)) % trials.size();
          const auto diff = run_diff(
              shared.run_image(trials[i].image, trials[i].config), want[i]);
          if (!diff.empty() && failures[t].empty())
            failures[t] = trials[i].name + ": " + diff;
        }
      });
    for (auto& thread : threads) thread.join();
    for (std::size_t t = 0; t < failures.size(); ++t)
      EXPECT_EQ(failures[t], "") << backend << " thread " << t;
  }
}

TEST(BlockStore, CampaignTrialsStayWithinTheSlotCap) {
  // Under an authenticated scheme no tampered block executes, so only the
  // clean pairs are ever entered; under "null" tampered control flow
  // reaches new pairs, and their slots must stop at the cap.
  for (const char* scheme : {"sofia-cbcmac", "null"}) {
    auto profile = functional_profile();
    profile.scheme = scheme;
    const auto session = Pipeline::from_source(kSource, profile);
    auto donor_profile = profile;
    donor_profile.omega_override = 0x0BAD;
    const auto donor = Pipeline::from_source(kSource, donor_profile).image();
    const auto clean = Pipeline::from_source(kSource, profile).image();
    campaign::ImageGeometry geometry;
    geometry.text_words = static_cast<std::uint32_t>(clean.text.size());
    geometry.words_per_block = profile.policy.words_per_block;
    geometry.text_base = clean.text_base;
    const campaign::ApplyContext ctx{geometry.words_per_block, &donor};
    sim::SimConfig base;
    base.max_cycles = 20'000;
    ASSERT_TRUE(session.run_image(clean, base).ok());
    const std::size_t clean_slots = store_of(session).size();
    Rng rng(2016);
    for (int trial = 0; trial < 5000; ++trial) {
      auto image = clean;
      auto config = base;
      campaign::apply(campaign::generate_record(rng, geometry), image, config,
                      ctx);
      session.run_image(image, config);
    }
    const sim::BlockStore& store = store_of(session);
    EXPECT_EQ(store.capacity(), clean.text.size()) << scheme;
    EXPECT_GT(clean_slots, 0u) << scheme;
    EXPECT_LE(store.size(), store.capacity()) << scheme;
    if (std::string(scheme) == "null") {
      EXPECT_GT(store.size(), clean_slots);  // tampering reached new pairs
    }
  }
}

// ---------------------------------------------------------------------------
// Remote backend: registry/profile contract + cross-validation
// ---------------------------------------------------------------------------

TEST(RemoteBackend, ProfileFingerprintAndJsonCarryTheEndpoint) {
  auto p = DeviceProfile::paper_default();
  p.backend = "remote";
  p.remote = DeviceProfile::parse_worker("ssh host sofia_worker", "functional");
  const auto fp = p.fingerprint();
  EXPECT_NE(fp.find("backend=remote"), std::string::npos) << fp;
  EXPECT_NE(fp.find("remote-backend=functional"), std::string::npos) << fp;
  EXPECT_NE(fp.find("ssh host sofia_worker"), std::string::npos) << fp;
  const auto json = p.to_json();
  EXPECT_NE(json.find("\"remote\":{\"command\":\"ssh host sofia_worker\""),
            std::string::npos)
      << json;
  // Local backends keep their PR-4 fingerprints byte-stable: no endpoint.
  EXPECT_EQ(DeviceProfile::paper_default().fingerprint().find("remote-"),
            std::string::npos);
}

TEST(RemoteBackend, ParseWorkerValidatesBothParts) {
  EXPECT_THROW(DeviceProfile::parse_worker("", "cycle"), Error);
  EXPECT_THROW(DeviceProfile::parse_worker("cmd", "warp"), Error);
  EXPECT_THROW(DeviceProfile::parse_worker("cmd", "remote"), Error);
  const auto spec = DeviceProfile::parse_worker("cmd", "functional");
  EXPECT_EQ(spec.command, "cmd");
  EXPECT_EQ(spec.backend, "functional");
}

#ifdef SOFIA_WORKER_BIN
TEST(RemoteBackend, CrossValidatesAgainstBothLocalBackends) {
  // The acceptance matrix, through the wire: a Pipeline on backend "remote"
  // must be indistinguishable — timing included, since the far side runs
  // the very same simulator — from the local backend the worker executes.
  for (const char* far : {"cycle", "functional"}) {
    auto local_profile = DeviceProfile::paper_default();
    local_profile.backend = far;
    auto local = Pipeline::from_source(kSource, local_profile);

    auto remote_profile = DeviceProfile::paper_default();
    remote_profile.backend = "remote";
    remote_profile.remote = DeviceProfile::parse_worker(SOFIA_WORKER_BIN, far);
    auto remote = Pipeline::from_source(kSource, remote_profile);

    ASSERT_TRUE(local.run().ok()) << far;
    expect_same_architectural_outcome(local.run(), remote.run(), far);
    EXPECT_EQ(local.run().stats.cycles, remote.run().stats.cycles) << far;
    EXPECT_EQ(sim::RemoteBackend(remote_profile.remote)
                  .capabilities()
                  .cycle_accurate,
              std::string(far) == "cycle")
        << far;
  }
}
#endif  // SOFIA_WORKER_BIN

}  // namespace
}  // namespace sofia
