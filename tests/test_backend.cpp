// Cross-validation of the execution backends (src/sim/backend.hpp): the
// registry contract, and the load-bearing property that the "functional"
// backend is architecturally indistinguishable from the cycle-accurate
// machine — same exit state, same console output, same instruction-level
// counters on clean runs, and the same reset-on-tamper behavior — for
// every registered workload under every cipher.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/mutation.hpp"
#include "pipeline/pipeline.hpp"
#include "random_program.hpp"
#include "remote/codec.hpp"
#include "reference_interp.hpp"
#include "scheme/scheme.hpp"
#include "sim/backend.hpp"
#include "sim/cycle_backend.hpp"
#include "sim/functional_backend.hpp"
#include "sim_test_util.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

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

TEST(BackendRegistry, ListsCycleFirstThenFunctional) {
  const auto names = sim::backend_names();
  // "cycle" first: the default every DeviceProfile starts with.
  EXPECT_EQ(names, (std::vector<std::string>{"cycle", "functional"}));
  EXPECT_EQ(sim::kDefaultBackend, "cycle");
  for (const auto& name : names) EXPECT_TRUE(sim::is_backend(name)) << name;
  EXPECT_FALSE(sim::is_backend("warp"));
}

TEST(BackendRegistry, MakeBackendRoundTripsAndRejectsUnknown) {
  for (const auto& entry : sim::backend_registry()) {
    const auto backend = sim::make_backend(entry.name);
    ASSERT_NE(backend, nullptr);
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
  EXPECT_TRUE(cycle->cycle_accurate());
  EXPECT_FALSE(sim::make_backend("functional")->cycle_accurate());
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

// ---------------------------------------------------------------------------
// sim::vanilla_view: the fields it drops never reach a vanilla run
// ---------------------------------------------------------------------------

void expect_identical_run(const sim::RunResult& a, const sim::RunResult& b,
                          const std::string& label) {
  EXPECT_EQ(a.status, b.status) << label;
  EXPECT_EQ(a.exit_code, b.exit_code) << label;
  EXPECT_EQ(a.output, b.output) << label;
  EXPECT_EQ(a.fault, b.fault) << label;
  EXPECT_EQ(a.reset.cause, b.reset.cause) << label;
  EXPECT_EQ(a.reset.cycle, b.reset.cycle) << label;
  EXPECT_EQ(a.reset.pc, b.reset.pc) << label;
  EXPECT_EQ(a.stats, b.stats) << label;  // all 18 counters
  ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].cycle, b.trace[i].cycle) << label << " @" << i;
    EXPECT_EQ(a.trace[i].pc, b.trace[i].pc) << label << " @" << i;
    EXPECT_EQ(a.trace[i].word, b.trace[i].word) << label << " @" << i;
  }
}

TEST(VanillaView, DroppedFieldsNeverChangeAVanillaRun) {
  // Each field vanilla_view() resets, changed on its own: the vanilla run
  // must not move on either local backend, trace included. This is what
  // lets driver::run_sweep share one vanilla run per baseline group.
  const std::pair<const char*, void (*)(sim::SimConfig&)> dropped[] = {
      {"keys",
       [](sim::SimConfig& c) {
         Rng r(11);
         c.keys = crypto::KeySet::random(crypto::CipherKind::kSpeck64_128, r);
       }},
      {"scheme", [](sim::SimConfig& c) { c.scheme = "null"; }},
      {"policy", [](sim::SimConfig& c) { c.policy = xform::BlockPolicy{16, 4}; }},
      {"cipher",
       [](sim::SimConfig& c) { c.cipher = sim::CipherTiming{13, false, false}; }},
      {"store_gate_headstart",
       [](sim::SimConfig& c) { c.store_gate_headstart = 0; }},
      {"fetch_words_per_cycle",
       [](sim::SimConfig& c) { c.fetch_words_per_cycle = 1; }},
  };
  sim::SimConfig base;
  base.collect_trace = true;
  for (const char* backend_name : {"cycle", "functional"}) {
    const auto backend = sim::make_backend(backend_name);
    for (const char* workload : {"fib", "crc32", "bitcount", "quicksort"}) {
      const auto& spec = workloads::workload(workload);
      auto p = Pipeline::from_workload(spec, 1, std::max(4u, spec.default_size / 16));
      const auto& img = p.vanilla_image();
      const sim::RunResult expected = backend->run(img, base);
      ASSERT_TRUE(expected.ok()) << workload;
      ASSERT_FALSE(expected.trace.empty()) << workload;
      for (const auto& [field, change] : dropped) {
        sim::SimConfig changed = base;
        change(changed);
        const std::string label =
            std::string(backend_name) + " / " + workload + " / " + field;
        EXPECT_EQ(remote::encode_config(sim::vanilla_view(changed)),
                  remote::encode_config(sim::vanilla_view(base)))
            << label;
        expect_identical_run(backend->run(img, changed), expected, label);
      }
    }
  }
}

TEST(VanillaView, KeptFieldsChangeTheEncodedView) {
  const sim::SimConfig base;
  const auto view = remote::encode_config(sim::vanilla_view(base));
  sim::SimConfig icache = base;
  icache.icache.size_bytes = 1024;
  sim::SimConfig budget = base;
  budget.max_cycles = 1000;
  sim::SimConfig fault = base;
  fault.fault.enabled = true;
  for (const sim::SimConfig* kept : {&icache, &budget, &fault})
    EXPECT_NE(remote::encode_config(sim::vanilla_view(*kept)), view);
}

// remote::encode_config is the SimConfig part of every sweep and campaign
// cache key: a field it drops would let two different runs share a key.
// Each field, changed on its own, must change the bytes; the digests pin
// the encoding itself, so a reordered or resized field moves every key.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(ConfigEncoding, EveryFieldChangesTheEncodedBytes) {
  const std::pair<const char*, void (*)(sim::SimConfig&)> fields[] = {
      {"fetch_queue", [](sim::SimConfig& c) { c.fetch_queue = 9; }},
      {"redirect_bubble", [](sim::SimConfig& c) { c.redirect_bubble = 5; }},
      {"fetch_words_per_cycle",
       [](sim::SimConfig& c) { c.fetch_words_per_cycle = 1; }},
      {"icache.size_bytes",
       [](sim::SimConfig& c) { c.icache.size_bytes = 2048; }},
      {"icache.line_bytes", [](sim::SimConfig& c) { c.icache.line_bytes = 64; }},
      {"icache.miss_penalty",
       [](sim::SimConfig& c) { c.icache.miss_penalty = 20; }},
      {"load_latency", [](sim::SimConfig& c) { c.load_latency = 1; }},
      {"mul_latency", [](sim::SimConfig& c) { c.mul_latency = 7; }},
      {"keys.kind",
       [](sim::SimConfig& c) { c.keys.kind = crypto::CipherKind::kSpeck64_128; }},
      {"keys.k1", [](sim::SimConfig& c) { c.keys.k1[0] ^= 1; }},
      {"keys.k2", [](sim::SimConfig& c) { c.keys.k2[5] ^= 0x80; }},
      {"keys.k3", [](sim::SimConfig& c) { c.keys.k3.back() ^= 1; }},
      {"keys.omega", [](sim::SimConfig& c) { c.keys.omega = 0x1234; }},
      {"scheme", [](sim::SimConfig& c) { c.scheme = "sponge"; }},
      {"policy.words_per_block",
       [](sim::SimConfig& c) { c.policy.words_per_block = 16; }},
      {"policy.store_min_word",
       [](sim::SimConfig& c) { c.policy.store_min_word = 3; }},
      {"cipher.latency", [](sim::SimConfig& c) { c.cipher.latency = 13; }},
      {"cipher.alternate", [](sim::SimConfig& c) { c.cipher.alternate = false; }},
      {"cipher.pipelined", [](sim::SimConfig& c) { c.cipher.pipelined = false; }},
      {"store_gate_headstart",
       [](sim::SimConfig& c) { c.store_gate_headstart = 0; }},
      {"fault.enabled", [](sim::SimConfig& c) { c.fault.enabled = true; }},
      {"fault.fetch_index", [](sim::SimConfig& c) { c.fault.fetch_index = 77; }},
      {"fault.bit", [](sim::SimConfig& c) { c.fault.bit = 31; }},
      {"max_cycles", [](sim::SimConfig& c) { c.max_cycles = 1000; }},
      {"collect_trace", [](sim::SimConfig& c) { c.collect_trace = true; }},
      {"max_trace", [](sim::SimConfig& c) { c.max_trace = 4242; }},
  };
  const sim::SimConfig base;
  const auto encoded = remote::encode_config(base);
  for (const auto& [field, change] : fields) {
    sim::SimConfig changed = base;
    change(changed);
    EXPECT_NE(remote::encode_config(changed), encoded) << field;
  }
}

TEST(ConfigEncoding, DigestsOfTheEncodedBytesArePinned) {
  // A fully populated config: non-default knobs wherever a field could
  // silently fall out of the encoding.
  auto p = Pipeline::from_source(kSource);
  sim::SimConfig sample = p.effective_sim_config();
  sample.fetch_queue = 9;
  sample.icache.size_bytes = 2048;
  sample.cipher.pipelined = false;
  sample.fault.enabled = true;
  sample.fault.fetch_index = 1234567890123ull;
  sample.fault.bit = 17;
  sample.max_cycles = 987654321;
  sample.collect_trace = true;
  sample.max_trace = 4242;
  EXPECT_EQ(fnv1a(remote::encode_config(sim::SimConfig{})), 0xdce0ba5eeefa089aull);
  EXPECT_EQ(fnv1a(remote::encode_config(sample)), 0x7a419f409af64975ull);
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
    if (!entry.traits().authenticated) continue;
    const std::string name(entry.name());
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

TEST(FunctionalBackend, EveryBudgetRetiresThePrefixOfTheUnboundedRun) {
  // Padding NOPs retire in bulk; a budget b must still stop the built-in
  // campaign victim after exactly min(b, N) instructions with the NOPs of
  // the unbounded run's first b trace entries, the same trace prefix and
  // max-cycles, also where b ends inside a run of padding.
  const auto smoke = campaign::smoke(campaign::default_campaign());
  for (const auto& cell : smoke.cells) {
    if (!scheme::get_scheme(cell.scheme).traits().authenticated) continue;
    const campaign::Target target(smoke, cell);
    ASSERT_EQ(target.session().profile().backend, "functional");
    sim::SimConfig cfg = target.session().sim_config();
    cfg.collect_trace = true;
    const auto full = target.session().run_image(target.image(), cfg);
    ASSERT_TRUE(full.ok()) << cell.scheme;
    const std::uint64_t n = full.stats.insts;
    ASSERT_EQ(full.trace.size(), n) << cell.scheme;
    // NOPs among the first k trace entries.
    std::vector<std::uint64_t> nops(n + 1, 0);
    for (std::uint64_t k = 0; k < n; ++k)
      nops[k + 1] = nops[k] + (full.trace[k].word == 0 ? 1 : 0);
    ASSERT_GT(nops[n], n / 2) << cell.scheme << ": padding dominates";
    std::uint64_t cut_in_padding = 0;
    for (std::uint64_t b = 1; b <= n + 1; ++b) {
      cfg.max_cycles = b;
      const auto run = target.session().run_image(target.image(), cfg);
      const std::uint64_t want = std::min(b, n);
      const std::string at = cell.scheme + " budget " + std::to_string(b);
      ASSERT_EQ(run.stats.insts, want) << at;
      EXPECT_EQ(run.stats.nops, nops[want]) << at;
      EXPECT_EQ(run.status,
                b < n ? sim::RunResult::Status::kMaxCycles : full.status)
          << at;
      ASSERT_EQ(run.trace.size(), want) << at;
      EXPECT_TRUE(std::equal(run.trace.begin(), run.trace.end(),
                             full.trace.begin(),
                             [](const sim::TraceEntry& x,
                                const sim::TraceEntry& y) {
                               return x.cycle == y.cycle && x.pc == y.pc &&
                                      x.word == y.word;
                             }))
          << at;
      if (b < n && full.trace[b - 1].word == 0 && full.trace[b].word == 0)
        ++cut_in_padding;
    }
    EXPECT_GT(cut_in_padding, 0u) << cell.scheme;
  }
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
// Functional digest: whole functional runs pinned across code changes
// ---------------------------------------------------------------------------

namespace functional_digest {

struct DigestCase {
  std::string label;
  std::function<sim::RunResult()> run;
};

constexpr char kSelfModifyingVanilla[] = R"(
main:
  li r1, 0
  li r5, 0
  la r10, bump
loop:
  call bump
  bnez r5, done
  li r5, 1
  lbu r11, 1(r10)
  xori r11, r11, 1
  sb r11, 1(r10)
  j loop
done:
  li r12, 0xFFFF0008
  sw r1, 0(r12)
  halt
bump:
  addi r1, r1, 1
  ret
)";

/// The configuration `p`'s device runs with, tracing on.
sim::SimConfig traced(const Pipeline& p) {
  sim::SimConfig cfg = p.effective_sim_config();
  cfg.collect_trace = true;
  return cfg;
}

std::vector<DigestCase> digest_cases() {
  std::vector<DigestCase> cases;
  const auto workload = [](const std::string& wl, DeviceProfile profile) {
    const std::uint32_t size =
        std::max(4u, workloads::workload(wl).default_size / 16);
    return std::make_shared<Pipeline>(
        Pipeline::from_workload(wl, 1, size, std::move(profile)));
  };
  const auto scheme_profile = [](const std::string& scheme) {
    DeviceProfile p = functional_profile();
    p.scheme = scheme;
    return p;
  };
  // Every workload at smoke size: the vanilla core and each scheme.
  for (const auto& wl : workloads::all_workloads()) {
    const auto base = workload(wl.name, functional_profile());
    cases.push_back({wl.name + "/vanilla", [base] {
                       return base->run_image(base->vanilla_image(),
                                              traced(*base));
                     }});
    for (const auto& scheme : scheme::scheme_names()) {
      const auto p = workload(wl.name, scheme_profile(scheme));
      cases.push_back({wl.name + "/" + scheme, [p] {
                         return p->run_image(p->hardened().image, traced(*p));
                       }});
    }
  }
  // Runs that end early: tampering, a fetch fault, and instruction budgets
  // (15 ends inside the first block's padding on crc32).
  const auto crc = workload("crc32", functional_profile());
  cases.push_back({"crc32/tampered", [crc] {
                     auto img = crc->hardened().image;
                     img.text[img.text.size() / 2] ^= 1u << 7;
                     return crc->run_image(img, traced(*crc));
                   }});
  cases.push_back({"crc32/fetch-fault", [crc] {
                     sim::SimConfig cfg = traced(*crc);
                     cfg.fault.enabled = true;
                     cfg.fault.fetch_index = 300;
                     cfg.fault.bit = 5;
                     return crc->run_image(crc->hardened().image, cfg);
                   }});
  for (const std::uint64_t budget : {15u, 1020u}) {
    cases.push_back({"crc32/max-insts" + std::to_string(budget),
                     [crc, budget] {
                       sim::SimConfig cfg = traced(*crc);
                       cfg.max_cycles = budget;
                       return crc->run_image(crc->hardened().image, cfg);
                     }});
  }
  cases.push_back({"crc32/trace-cap", [crc] {
                     sim::SimConfig cfg = traced(*crc);
                     cfg.max_trace = 37;
                     return crc->run_image(crc->hardened().image, cfg);
                   }});
  // Vanilla fetch faults: at 301 the flipped loop word executes once and
  // then clean on the loop's next 60 passes; at 300 the flip makes the
  // word illegal; at 0 it hits the first word of the run.
  const auto vanilla_crc = workload("crc32", functional_profile());
  for (const auto& [index, bit] :
       {std::pair<std::uint64_t, std::uint32_t>{301, 3}, {300, 30}, {0, 30}}) {
    std::string label = "crc32/vanilla-fetch-fault";
    label += std::to_string(index);
    label += "-bit";
    label += std::to_string(bit);
    cases.push_back({label, [vanilla_crc, index, bit] {
                       sim::SimConfig cfg = traced(*vanilla_crc);
                       cfg.fault.enabled = true;
                       cfg.fault.fetch_index = index;
                       cfg.fault.bit = bit;
                       return vanilla_crc->run_image(
                           vanilla_crc->vanilla_image(), cfg);
                     }});
  }
  // A vanilla program that rewrites one byte of an instruction it has
  // already executed, then executes it again: the second call adds 257.
  const auto smc = std::make_shared<Pipeline>(
      Pipeline::from_source(kSelfModifyingVanilla, functional_profile()));
  cases.push_back({"self-modifying/vanilla", [smc] {
                     return smc->run_image(smc->vanilla_image(), traced(*smc));
                   }});
  return cases;
}

struct PinnedDigest {
  const char* label;
  std::uint64_t digest;
};

const PinnedDigest kPinnedDigests[] = {
    {"adpcm_encode/vanilla", 0x04c9264e404b8e39ull},
    {"adpcm_encode/sofia-cbcmac", 0x46067cf17739074eull},
    {"adpcm_encode/sponge", 0x6676bd1422319352ull},
    {"adpcm_encode/null", 0x09fee8d2cd8ecf36ull},
    {"adpcm_encode/flta", 0xa8f059f11c1fcfd2ull},
    {"adpcm_decode/vanilla", 0xd38a428afc8b719cull},
    {"adpcm_decode/sofia-cbcmac", 0x64cd776487a0d4bdull},
    {"adpcm_decode/sponge", 0x839fc408711fafd6ull},
    {"adpcm_decode/null", 0xb55885818732b80bull},
    {"adpcm_decode/flta", 0x51601952385602e4ull},
    {"crc32/vanilla", 0x49f6204856affba1ull},
    {"crc32/sofia-cbcmac", 0x4724df441a209d1dull},
    {"crc32/sponge", 0x305fe1e3cbc1b6d9ull},
    {"crc32/null", 0x2166677f74297051ull},
    {"crc32/flta", 0x3914a02e7da934cbull},
    {"fir/vanilla", 0xb50a9c3aca53e5faull},
    {"fir/sofia-cbcmac", 0x7fa972b1ee340bcfull},
    {"fir/sponge", 0xe78f7a6480804710ull},
    {"fir/null", 0x06e383266a69403dull},
    {"fir/flta", 0x4f13e2eab6bcf75cull},
    {"quicksort/vanilla", 0x6ea1b38ac38f3db0ull},
    {"quicksort/sofia-cbcmac", 0xe3022e83c4d1c3ccull},
    {"quicksort/sponge", 0x5d70fd54079bcb80ull},
    {"quicksort/null", 0x0d677309987c5a5eull},
    {"quicksort/flta", 0x7f1e2be2485ad833ull},
    {"matmul/vanilla", 0xac7f99717ca8194aull},
    {"matmul/sofia-cbcmac", 0x692c51605d3c8d21ull},
    {"matmul/sponge", 0x4ab102e596552ad8ull},
    {"matmul/null", 0x747e509a27a2e117ull},
    {"matmul/flta", 0x75f7e63d0576246eull},
    {"strsearch/vanilla", 0x7bbad86ae3a6313eull},
    {"strsearch/sofia-cbcmac", 0x30b0cb6d50221ff9ull},
    {"strsearch/sponge", 0xee552bdd0466a84dull},
    {"strsearch/null", 0xa04389179d41a3efull},
    {"strsearch/flta", 0x42be1d3a989402beull},
    {"fib/vanilla", 0x1a2b0bcf843db647ull},
    {"fib/sofia-cbcmac", 0xb194c8a9cfc6796cull},
    {"fib/sponge", 0x9035e095c45736eeull},
    {"fib/null", 0x3cf4ba01696742c4ull},
    {"fib/flta", 0x48c05696b6358e38ull},
    {"minivm/vanilla", 0x138c7d0471bc7fdaull},
    {"minivm/sofia-cbcmac", 0x841d83625fef295cull},
    {"minivm/sponge", 0x5503cb23ac02f311ull},
    {"minivm/null", 0xa7676807489a641cull},
    {"minivm/flta", 0x8820433a079ff56full},
    {"bitcount/vanilla", 0x3be137dd5aa56211ull},
    {"bitcount/sofia-cbcmac", 0xb3ee4dd0a62549e0ull},
    {"bitcount/sponge", 0xf234cefd544807c4ull},
    {"bitcount/null", 0x105b5c0a4b84bc90ull},
    {"bitcount/flta", 0x3156b5b3309b9928ull},
    {"dijkstra/vanilla", 0xa5556a4636c32a1aull},
    {"dijkstra/sofia-cbcmac", 0x8a8cc46e444fc112ull},
    {"dijkstra/sponge", 0xab5a01d4ed52e69full},
    {"dijkstra/null", 0x5a194fe14b0dfc7eull},
    {"dijkstra/flta", 0xdb30be25f8294ed8ull},
    {"crc32/tampered", 0xb41878ef7be0ca9dull},
    {"crc32/fetch-fault", 0x2c540009f3f8e12cull},
    {"crc32/max-insts15", 0x95c117c42ac68fbbull},
    {"crc32/max-insts1020", 0xffe84fb3cd807aa3ull},
    {"crc32/trace-cap", 0xc3fcd76ecd9c4105ull},
    {"crc32/vanilla-fetch-fault301-bit3", 0x310924065ed782afull},
    {"crc32/vanilla-fetch-fault300-bit30", 0xe6b911f583623bceull},
    {"crc32/vanilla-fetch-fault0-bit30", 0xb882d5f2b5d27739ull},
    {"self-modifying/vanilla", 0xd77f66a16b37abcaull},
};

}  // namespace functional_digest

TEST(FunctionalDigest, EveryRunMatchesTheRecordedDigest) {
  using functional_digest::kPinnedDigests;
  const auto cases = functional_digest::digest_cases();
  EXPECT_EQ(cases.size(), std::size(kPinnedDigests));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::uint64_t got = test::run_digest(cases[i].run());
    char line[96];
    std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxull},",
                  cases[i].label.c_str(),
                  static_cast<unsigned long long>(got));
    // A case past the table still prints its line.
    if (i >= std::size(kPinnedDigests)) {
      ADD_FAILURE() << line;
      continue;
    }
    EXPECT_EQ(cases[i].label, kPinnedDigests[i].label);
    EXPECT_EQ(got, kPinnedDigests[i].digest) << line;
  }
}

}  // namespace
}  // namespace sofia
