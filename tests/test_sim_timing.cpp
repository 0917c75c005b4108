// Microarchitectural behavior tests: trace facility, speculation squash,
// store gating, engine policies, fetch-width configs, fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "sim/cipher_engine.hpp"
#include "sim_test_util.hpp"
#include "workloads/workloads.hpp"

namespace sofia::sim {
namespace {

using test::sofia_config;
using test::test_keys;
using test::transform_source;

TEST(Trace, RecordsExecutedInstructionsInOrder) {
  const auto prog = assembler::assemble(R"(
main:
  addi r1, r0, 1
  addi r2, r0, 2
  halt
)");
  const auto img = assembler::link_vanilla(prog);
  SimConfig cfg;
  cfg.collect_trace = true;
  const auto run = run_image(img, cfg);
  ASSERT_EQ(run.trace.size(), 3u);
  EXPECT_EQ(run.trace[0].pc, 0u);
  EXPECT_EQ(run.trace[1].pc, 4u);
  EXPECT_EQ(run.trace[2].pc, 8u);
  EXPECT_LT(run.trace[0].cycle, run.trace[2].cycle);
  const std::string text = format_trace(run.trace);
  EXPECT_NE(text.find("addi r1, r0, 1"), std::string::npos);
  EXPECT_NE(text.find("halt"), std::string::npos);
}

TEST(Trace, CapsAtMaxTrace) {
  const auto prog = assembler::assemble(R"(
main:
  li r1, 100
loop:
  addi r1, r1, -1
  bnez r1, loop
  halt
)");
  const auto img = assembler::link_vanilla(prog);
  SimConfig cfg;
  cfg.collect_trace = true;
  cfg.max_trace = 10;
  const auto run = run_image(img, cfg);
  EXPECT_EQ(run.trace.size(), 10u);
}

TEST(Trace, WrongPathInstructionsNeverExecute) {
  // Speculation past a taken branch must be squashed: the instruction after
  // the branch never appears in the trace.
  const auto prog = assembler::assemble(R"(
main:
  li r1, 1
  bnez r1, target      ; always taken
  addi r2, r0, 99      ; wrong path
target:
  halt
)");
  const auto img = assembler::link_vanilla(prog);
  SimConfig cfg;
  cfg.collect_trace = true;
  const auto run = run_image(img, cfg);
  for (const auto& entry : run.trace) {
    const auto inst = isa::decode(entry.word);
    ASSERT_TRUE(inst.has_value());
    EXPECT_FALSE(inst->op == isa::Opcode::kAddi && inst->imm == 99)
        << "wrong-path instruction executed";
  }
}

TEST(Trace, SofiaTraceMatchesVanillaInstructionSequence) {
  // Filter out SOFIA padding NOPs: the remaining dynamic instruction stream
  // must be identical (same opcodes in the same order).
  const std::string src = R"(
main:
  li r1, 4
  li r2, 0
loop:
  add r2, r2, r1
  addi r1, r1, -1
  bnez r1, loop
  halt
)";
  const auto prog = assembler::assemble(src);
  SimConfig vcfg;
  vcfg.collect_trace = true;
  const auto vrun = run_image(assembler::link_vanilla(prog), vcfg);

  const auto keys = test_keys();
  const auto result = transform_source(src, keys);
  auto scfg = sofia_config(keys);
  scfg.collect_trace = true;
  const auto srun = run_image(result.image, scfg);

  // The transformer adds padding NOPs and synthesized unconditional jumps
  // (run-end joins); drop both from each side before comparing opcodes.
  const auto filter = [](const std::vector<TraceEntry>& trace) {
    std::vector<std::uint32_t> words;
    for (const auto& e : trace) {
      if (e.word == 0) continue;  // NOP
      const auto inst = isa::decode(e.word);
      if (inst && inst->op == isa::Opcode::kJal && inst->rd == isa::kRegZero)
        continue;  // plain jump (synthesized or layout-specific)
      words.push_back(e.word);
    }
    return words;
  };
  const auto vwords = filter(vrun.trace);
  const auto swords = filter(srun.trace);
  // Branch immediates differ between layouts; compare opcode sequences.
  ASSERT_EQ(vwords.size(), swords.size());
  for (std::size_t i = 0; i < vwords.size(); ++i)
    EXPECT_EQ(vwords[i] >> 26, swords[i] >> 26) << "position " << i;
}

TEST(StoreGate, StallsAccountedOnlyForSofia) {
  const std::string src = R"(
main:
  la r1, buf
  sw r0, 0(r1)
  sw r0, 4(r1)
  halt
.data
buf: .space 8
)";
  const auto vrun = test::run_vanilla(src);
  EXPECT_EQ(vrun.stats.store_gate_stalls, 0u);
  const auto srun = test::run_sofia(src);
  ASSERT_TRUE(srun.ok());
  EXPECT_GT(srun.stats.store_gate_stalls, 0u);
}

TEST(StoreGate, HeadstartReducesStalls) {
  const std::string src = R"(
main:
  la r1, buf
  li r2, 16
loop:
  sw r2, 0(r1)
  sw r2, 4(r1)
  addi r2, r2, -1
  bnez r2, loop
  halt
.data
buf: .space 8
)";
  const auto keys = test_keys();
  const auto result = transform_source(src, keys);
  auto strict = sofia_config(keys);
  strict.store_gate_headstart = 0;
  auto relaxed = sofia_config(keys);
  relaxed.store_gate_headstart = 5;
  const auto a = run_image(result.image, strict);
  const auto b = run_image(result.image, relaxed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a.stats.store_gate_stalls, b.stats.store_gate_stalls);
  EXPECT_GE(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.output, b.output);
}

TEST(CipherEngineFlush, IterativeInFlightOpDrainsAcrossFlush) {
  // Regression: flush() used to rewind next_any_slot_ to the flush cycle
  // even while an iterative op occupied the instance, letting the first
  // post-redirect op start on busy hardware.
  CipherTiming timing;
  timing.pipelined = false;
  timing.latency = 8;
  CipherEngine engine(timing);
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCtr, 10), 18u);  // busy [10,18)
  engine.flush(12);  // redirect mid-op
  // The next op may start only once the in-flight op drains at 18.
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCtr, 12), 26u);
}

TEST(CipherEngineFlush, IterativeQueuedOpsAreDropped) {
  CipherTiming timing;
  timing.pipelined = false;
  timing.latency = 8;
  CipherEngine engine(timing);
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCtr, 10), 18u);  // in flight
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCbc, 10), 26u);  // queued
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCtr, 10), 34u);  // queued
  engine.flush(12);
  // Queued work is squashed: only the in-flight drain (cycle 18) remains.
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCbc, 12), 26u);
}

TEST(CipherEngineFlush, IterativeFlushAfterDrainFreesEngine) {
  CipherTiming timing;
  timing.pipelined = false;
  timing.latency = 8;
  CipherEngine engine(timing);
  engine.schedule(CipherEngine::Op::kCtr, 10);  // busy [10,18)
  engine.flush(30);                             // long after the drain
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCtr, 30), 38u);
}

TEST(CipherEngineFlush, DoubleFlushKeepsTheDrainingOpBusy) {
  CipherTiming timing;
  timing.pipelined = false;
  timing.latency = 8;
  CipherEngine engine(timing);
  engine.schedule(CipherEngine::Op::kCtr, 10);  // busy [10,18)
  engine.flush(11);
  engine.flush(13);  // second redirect before the drain completes
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCtr, 13), 26u);
}

TEST(CipherEngineFlush, InFlightOpSurvivesDeepRunAheadHistory) {
  // Regression for the history backstop: with a deep iterative cipher and
  // many run-ahead ops queued after the in-flight one, the op occupying
  // the engine at the redirect must still be found by flush().
  CipherTiming timing;
  timing.pipelined = false;
  timing.latency = 26;
  CipherEngine engine(timing);
  engine.flush(0);  // a prior redirect pins the prune horizon
  for (int i = 0; i < 40; ++i) engine.schedule(CipherEngine::Op::kCtr, 100);
  engine.flush(110);  // inside the first op's [100, 126) busy window
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCtr, 110), 126u + 26u);
}

TEST(CipherEngineFlush, PipelinedSlotsFreeImmediately) {
  CipherTiming timing;  // pipelined, alternating (paper default)
  CipherEngine engine(timing);
  engine.schedule(CipherEngine::Op::kCtr, 10);
  engine.schedule(CipherEngine::Op::kCtr, 10);
  engine.flush(12);
  // Squashed ops drain out of the stage registers; the next CTR op starts
  // on the first even cycle at or after the redirect.
  EXPECT_EQ(engine.schedule(CipherEngine::Op::kCtr, 12), 14u);
}

TEST(EngineConfig, IterativeEngineSlowerThanPipelined) {
  const std::string src = R"(
main:
  li r1, 40
loop:
  addi r1, r1, -1
  bnez r1, loop
  halt
)";
  const auto keys = test_keys();
  const auto result = transform_source(src, keys);
  auto pipelined = sofia_config(keys);
  auto iterative = sofia_config(keys);
  iterative.cipher.pipelined = false;
  const auto a = run_image(result.image, pipelined);
  const auto b = run_image(result.image, iterative);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(a.stats.cycles, b.stats.cycles);
}

TEST(EngineConfig, HigherLatencyCostsCycles) {
  const std::string src = "main:\n li r1, 9\nloop:\n addi r1, r1, -1\n bnez r1, loop\n halt\n";
  const auto keys = test_keys();
  const auto result = transform_source(src, keys);
  std::uint64_t prev = 0;
  for (const std::uint32_t latency : {2u, 8u, 26u}) {
    auto cfg = sofia_config(keys);
    cfg.cipher.latency = latency;
    cfg.cipher.pipelined = false;
    const auto run = run_image(result.image, cfg);
    ASSERT_TRUE(run.ok()) << latency;
    EXPECT_GT(run.stats.cycles, prev) << latency;
    prev = run.stats.cycles;
  }
}

TEST(FetchWidth, NarrowFetchNeverFaster) {
  const std::string src = R"(
main:
  li r1, 30
loop:
  addi r2, r2, 3
  addi r3, r3, 5
  add r2, r2, r3
  addi r1, r1, -1
  bnez r1, loop
  halt
)";
  const auto keys = test_keys();
  const auto result = transform_source(src, keys);
  auto wide = sofia_config(keys);
  wide.fetch_words_per_cycle = 2;
  auto narrow = sofia_config(keys);
  narrow.fetch_words_per_cycle = 1;
  const auto a = run_image(result.image, wide);
  const auto b = run_image(result.image, narrow);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.output, b.output);
}

TEST(Fault, VanillaFaultCanSilentlyCorrupt) {
  // Flip the immediate bit of 'li r1, 4' -> vanilla prints a wrong value.
  const std::string src = R"(
main:
  li r1, 4
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
)";
  const auto prog = assembler::assemble(src);
  const auto img = assembler::link_vanilla(prog);
  SimConfig cfg;
  cfg.fault.enabled = true;
  cfg.fault.fetch_index = 0;  // the li itself
  cfg.fault.bit = 1;          // imm bit: 4 -> 6
  const auto run = run_image(img, cfg);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.output, "6\n");
}

TEST(Fault, SofiaDetectsSameFault) {
  const std::string src = R"(
main:
  li r1, 4
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
)";
  const auto keys = test_keys();
  const auto result = transform_source(src, keys);
  auto cfg = sofia_config(keys);
  cfg.fault.enabled = true;
  cfg.fault.fetch_index = 2;  // first instruction word of the first block
  cfg.fault.bit = 1;
  const auto run = run_image(result.image, cfg);
  EXPECT_EQ(run.status, RunResult::Status::kReset);
  EXPECT_EQ(run.reset.cause, ResetCause::kMacMismatch);
  EXPECT_TRUE(run.output.empty());
}

TEST(Fault, FaultOnStoredMacWordDetected) {
  const auto keys = test_keys();
  const auto result = transform_source("main:\n li r1, 1\n halt\n", keys);
  auto cfg = sofia_config(keys);
  cfg.fault.enabled = true;
  cfg.fault.fetch_index = 0;  // M1 of the entry block
  cfg.fault.bit = 13;
  const auto run = run_image(result.image, cfg);
  EXPECT_EQ(run.status, RunResult::Status::kReset);
}

TEST(MaxCycles, SofiaInfiniteLoopBounded) {
  const auto keys = test_keys();
  const auto result = transform_source("main:\n j main\n", keys);
  auto cfg = sofia_config(keys);
  cfg.max_cycles = 3000;
  const auto run = run_image(result.image, cfg);
  EXPECT_EQ(run.status, RunResult::Status::kMaxCycles);
}

TEST(Devirt, UnlistedTargetTrapsInsteadOfJumping) {
  // The pointer value names a function outside the .targets set: the
  // devirtualized dispatch must fall into its trap (halt) rather than jump.
  const std::string src = R"(
main:
  la r4, evil
  li r1, 0
  .targets good
  jalr lr, r4
  li r1, 1             ; skipped if the dispatch trapped
  halt
good:
  addi r1, r1, 10
  ret
evil:
  li r1, 666
  ret
)";
  const auto keys = test_keys();
  const auto result = transform_source(src, keys);
  const auto run = run_image(result.image, sofia_config(keys));
  // The trap halts with r1 still 0 and no output; crucially 666 never ran.
  EXPECT_EQ(run.status, RunResult::Status::kHalted);
  EXPECT_TRUE(run.output.empty());
}

TEST(Stats, QueueAndStallCountersConsistent) {
  const auto run = test::run_sofia(R"(
main:
  li r1, 12
loop:
  addi r1, r1, -1
  bnez r1, loop
  halt
)");
  ASSERT_TRUE(run.ok());
  // Executed instructions cannot exceed elapsed cycles (single issue).
  EXPECT_LE(run.stats.insts, run.stats.cycles);
  // Every block verified exactly once.
  EXPECT_EQ(run.stats.mac_verifications, run.stats.blocks_fetched);
}


// ---- byte identity of whole runs --------------------------------------------
//
// Everything a cycle run reports — status, exit code, reset verdict, fault
// message, console output, every SimStats field and the full trace — folded
// into one digest per run (test::run_digest). The digests were recorded before the cycle
// machine's hot path was reworked; any change to a simulated number, on any
// front end or configuration below, shows here.

struct DigestCase {
  std::string label;
  std::function<RunResult()> run;
};

constexpr char kGatedDispatch[] = R"(
main:
  li r1, 0
  la r4, table
  lw r5, 0(r4)
  .targets f1, f2
  jr r5
mid:
  la r4, table2
  lw r5, 0(r4)
  .targets g1, g2
  jr r5
done:
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
f1:
  addi r1, r1, 1
  j mid
f2:
  addi r1, r1, 2
  j mid
g1:
  addi r1, r1, 4
  j done
g2:
  addi r1, r1, 8
  j done
.data
table: .word f1, f2
table2: .word g1, g2
)";

// Rewrites one word of its own text, then enters that block again
// (BackendCrossValidation.SelfModifyingStoreToTextResetsUnderBothBackends).
constexpr char kSelfModifying[] = R"(
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

/// The configuration `p`'s device runs with, tracing on.
SimConfig traced(const pipeline::Pipeline& p) {
  SimConfig cfg = p.effective_sim_config();
  cfg.collect_trace = true;
  return cfg;
}

std::vector<DigestCase> digest_cases() {
  using pipeline::DeviceProfile;
  using pipeline::Pipeline;
  std::vector<DigestCase> cases;
  const auto workload = [](const std::string& wl, DeviceProfile profile) {
    const std::uint32_t size =
        std::max(4u, workloads::workload(wl).default_size / 16);
    return std::make_shared<Pipeline>(
        Pipeline::from_workload(wl, 1, size, std::move(profile)));
  };
  const auto scheme_profile = [](const std::string& scheme) {
    DeviceProfile p = DeviceProfile::paper_default();
    p.scheme = scheme;
    return p;
  };
  // Both front ends, under one configuration edit, on one sealed image.
  const auto add_pair = [&](const std::string& label,
                            std::shared_ptr<Pipeline> p,
                            std::function<void(SimConfig&)> edit) {
    cases.push_back({label + "/vanilla", [p, edit] {
                       SimConfig cfg = traced(*p);
                       edit(cfg);
                       return run_image(p->vanilla_image(), cfg);
                     }});
    cases.push_back({label + "/sofia", [p, edit] {
                       SimConfig cfg = traced(*p);
                       edit(cfg);
                       return run_image(p->hardened().image, cfg);
                     }});
  };
  const auto none = [](SimConfig&) {};

  // Every workload at smoke size: the vanilla core and each scheme.
  for (const auto& wl : workloads::all_workloads()) {
    const auto base = workload(wl.name, DeviceProfile::paper_default());
    cases.push_back({wl.name + "/vanilla", [base] {
                       return run_image(base->vanilla_image(), traced(*base));
                     }});
    for (const auto& scheme : scheme::scheme_names()) {
      const auto p = workload(wl.name, scheme_profile(scheme));
      cases.push_back({wl.name + "/" + scheme, [p] {
                         return run_image(p->hardened().image, traced(*p));
                       }});
    }
  }

  // Front-end and engine configurations on two small workloads.
  for (const std::string wl : {"crc32", "fib"}) {
    const auto p = workload(wl, DeviceProfile::paper_default());
    add_pair(wl + "/iterative", p,
             [](SimConfig& c) { c.cipher.pipelined = false; });
    add_pair(wl + "/non-alternating", p,
             [](SimConfig& c) { c.cipher.alternate = false; });
    add_pair(wl + "/icache256-miss40", p, [](SimConfig& c) {
      c.icache.size_bytes = 256;
      c.icache.miss_penalty = 40;
    });
    add_pair(wl + "/fetch-queue1", p, [](SimConfig& c) { c.fetch_queue = 1; });
    add_pair(wl + "/fetch-words1", p,
             [](SimConfig& c) { c.fetch_words_per_cycle = 1; });
    DeviceProfile six = DeviceProfile::paper_default();
    six.policy = xform::BlockPolicy::small_unrestricted();
    add_pair(wl + "/block6", workload(wl, six), none);
  }

  // Runs that end early: tampering, a fetch fault, a gated-indirect
  // retarget, and a cycle budget that runs out inside an I-cache refill.
  const auto crc = workload("crc32", DeviceProfile::paper_default());
  cases.push_back({"crc32/tampered", [crc] {
                     auto img = crc->hardened().image;
                     img.text[img.text.size() / 2] ^= 1u << 7;
                     return run_image(img, traced(*crc));
                   }});
  add_pair("crc32/fetch-fault", crc, [](SimConfig& c) {
    c.fault.enabled = true;
    c.fault.fetch_index = 300;
    c.fault.bit = 5;
  });
  for (const std::uint64_t budget : {20u, 1020u}) {
    // 20 ends inside the refill of the very first fetch.
    add_pair("crc32/max-cycles" + std::to_string(budget), crc,
             [budget](SimConfig& c) {
               c.icache.size_bytes = 256;
               c.icache.miss_penalty = 40;
               c.max_cycles = budget;
             });
  }
  DeviceProfile flta = scheme_profile("flta");
  const auto dispatch = std::make_shared<Pipeline>(
      Pipeline::from_source(kGatedDispatch, flta, "dispatch"));
  cases.push_back({"dispatch/flta", [dispatch] {
                     return run_image(dispatch->hardened().image,
                                      traced(*dispatch));
                   }});
  cases.push_back({"dispatch/flta-retarget", [dispatch] {
                     // Aim the first dispatch at the second set's target.
                     auto img = dispatch->hardened().image;
                     std::copy_n(img.data.begin() + 8, 4, img.data.begin());
                     return run_image(img, traced(*dispatch));
                   }});
  // A store into the text, then a second entry of the rewritten block:
  // reset on the bad MAC, or (null) run the garbled instruction.
  for (const std::string scheme : {"sofia-cbcmac", "null"}) {
    const auto smc = std::make_shared<Pipeline>(
        Pipeline::from_source(kSelfModifying, scheme_profile(scheme), "smc"));
    cases.push_back({"self-modifying/" + scheme, [smc] {
                       return run_image(smc->hardened().image, traced(*smc));
                     }});
  }
  return cases;
}

struct PinnedDigest {
  const char* label;
  std::uint64_t digest;
};

const PinnedDigest kPinnedDigests[] = {
    {"adpcm_encode/vanilla", 0x01193cc83d4869ceull},
    {"adpcm_encode/sofia-cbcmac", 0xf61e2dd5f41af679ull},
    {"adpcm_encode/sponge", 0x1c7ad68a162702faull},
    {"adpcm_encode/null", 0xdd25bd729306f7dfull},
    {"adpcm_encode/flta", 0xa71cd32493e4b53aull},
    {"adpcm_decode/vanilla", 0xb43cb27f9e558415ull},
    {"adpcm_decode/sofia-cbcmac", 0xe72d2b190275647dull},
    {"adpcm_decode/sponge", 0x256de926ab3cdc48ull},
    {"adpcm_decode/null", 0x171fde1a212bc473ull},
    {"adpcm_decode/flta", 0xee26f3efcdca9dd6ull},
    {"crc32/vanilla", 0x1f41663273be007bull},
    {"crc32/sofia-cbcmac", 0x64838f1a8bbad5feull},
    {"crc32/sponge", 0xebb571f0ac92a920ull},
    {"crc32/null", 0xc94127a0662c3473ull},
    {"crc32/flta", 0x4d140338a9af406aull},
    {"fir/vanilla", 0xe1435ce97dfc2253ull},
    {"fir/sofia-cbcmac", 0x1de227ccf4da4c03ull},
    {"fir/sponge", 0x6271b80ea2b447b1ull},
    {"fir/null", 0x7be2c82513787587ull},
    {"fir/flta", 0x290a870a3c3a6e6cull},
    {"quicksort/vanilla", 0x2c8c1b068bdf4be7ull},
    {"quicksort/sofia-cbcmac", 0x12259daf5fb8b5f8ull},
    {"quicksort/sponge", 0x72557c9bf6738617ull},
    {"quicksort/null", 0x26ccb5c622645215ull},
    {"quicksort/flta", 0x4314afc1e5dde0afull},
    {"matmul/vanilla", 0x9243dd23200a25edull},
    {"matmul/sofia-cbcmac", 0xe26bbb8620480072ull},
    {"matmul/sponge", 0x6d7d4c6e24f7ad2bull},
    {"matmul/null", 0xbfd0eb9f7e91824cull},
    {"matmul/flta", 0xb83aee5b698ae74eull},
    {"strsearch/vanilla", 0x5c155231ac60f418ull},
    {"strsearch/sofia-cbcmac", 0x9e89ff23e8d7a9d7ull},
    {"strsearch/sponge", 0x5af43ea245459e2dull},
    {"strsearch/null", 0xe8bc04f07d8bbdfaull},
    {"strsearch/flta", 0xb4f70515a0c02842ull},
    {"fib/vanilla", 0xc28fba677fc50bbaull},
    {"fib/sofia-cbcmac", 0x305e4b7adaf0b09aull},
    {"fib/sponge", 0x693599047ecec055ull},
    {"fib/null", 0x74e6696e51f18438ull},
    {"fib/flta", 0x1ce943f0d15392e2ull},
    {"minivm/vanilla", 0xa059d401e58cc067ull},
    {"minivm/sofia-cbcmac", 0xde0764b879003e06ull},
    {"minivm/sponge", 0xf8d43fb07842b6baull},
    {"minivm/null", 0xe71009472d2ae915ull},
    {"minivm/flta", 0x54bf74280167de82ull},
    {"bitcount/vanilla", 0x880973f618cafe8eull},
    {"bitcount/sofia-cbcmac", 0x72869211161be3e9ull},
    {"bitcount/sponge", 0x79146c9a29cf51f0ull},
    {"bitcount/null", 0x008cca8278800fb9ull},
    {"bitcount/flta", 0xdb42c87d4009faffull},
    {"dijkstra/vanilla", 0x79c82d11d72a0130ull},
    {"dijkstra/sofia-cbcmac", 0x017b2c3609ee3ffcull},
    {"dijkstra/sponge", 0xa2418520c360bd83ull},
    {"dijkstra/null", 0x6ff794405b742372ull},
    {"dijkstra/flta", 0x5ca710080e79650aull},
    {"crc32/iterative/vanilla", 0x1f41663273be007bull},
    {"crc32/iterative/sofia", 0x0c00e9a0024f74b1ull},
    {"crc32/non-alternating/vanilla", 0x1f41663273be007bull},
    {"crc32/non-alternating/sofia", 0x0981f6676d605d93ull},
    {"crc32/icache256-miss40/vanilla", 0xd01f2400c381b629ull},
    {"crc32/icache256-miss40/sofia", 0x8b5afc8dc3fc4c04ull},
    {"crc32/fetch-queue1/vanilla", 0x1f41663273be007bull},
    {"crc32/fetch-queue1/sofia", 0x64838f1a8bbad5feull},
    {"crc32/fetch-words1/vanilla", 0x1f41663273be007bull},
    {"crc32/fetch-words1/sofia", 0x37320a8bf488fc6eull},
    {"crc32/block6/vanilla", 0x1f41663273be007bull},
    {"crc32/block6/sofia", 0x78e68b2788dea42full},
    {"fib/iterative/vanilla", 0xc28fba677fc50bbaull},
    {"fib/iterative/sofia", 0x8a3a843a06d45cd1ull},
    {"fib/non-alternating/vanilla", 0xc28fba677fc50bbaull},
    {"fib/non-alternating/sofia", 0xbaadb34e30661848ull},
    {"fib/icache256-miss40/vanilla", 0x994ff0b86dd99476ull},
    {"fib/icache256-miss40/sofia", 0x0a3a1eee3bed13f9ull},
    {"fib/fetch-queue1/vanilla", 0x822e341f421cadf2ull},
    {"fib/fetch-queue1/sofia", 0x7ac1e19c77f924cdull},
    {"fib/fetch-words1/vanilla", 0xc28fba677fc50bbaull},
    {"fib/fetch-words1/sofia", 0x8a449d9d457fbb8cull},
    {"fib/block6/vanilla", 0xc28fba677fc50bbaull},
    {"fib/block6/sofia", 0xec7c66e915d42404ull},
    {"crc32/tampered", 0x627d732bcdd13f4aull},
    {"crc32/fetch-fault/vanilla", 0xab205d33f38b229bull},
    {"crc32/fetch-fault/sofia", 0xfe47e08d9648b1d8ull},
    {"crc32/max-cycles20/vanilla", 0x01043b0cf79e8300ull},
    {"crc32/max-cycles20/sofia", 0x9a7080fdef1efc02ull},
    {"crc32/max-cycles1020/vanilla", 0x26e129af447e73a8ull},
    {"crc32/max-cycles1020/sofia", 0x77087234b8179054ull},
    {"dispatch/flta", 0x3cea7167dac22b94ull},
    {"dispatch/flta-retarget", 0xada4df1b9f8440beull},
    {"self-modifying/sofia-cbcmac", 0x19dc9212b8473b4full},
    {"self-modifying/null", 0x1e6f530e3f2e4f2full},
};

TEST(CycleDigest, EveryRunMatchesTheRecordedDigest) {
  const auto cases = digest_cases();
  ASSERT_EQ(cases.size(), std::size(kPinnedDigests));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::uint64_t got = test::run_digest(cases[i].run());
    char line[96];
    std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxull},",
                  cases[i].label.c_str(),
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(cases[i].label, kPinnedDigests[i].label);
    EXPECT_EQ(got, kPinnedDigests[i].digest) << line;
  }
}

}  // namespace
}  // namespace sofia::sim
