// Microarchitectural behavior tests: trace facility, speculation squash,
// store gating, engine policies, fetch-width configs, fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "driver/sweep.hpp"
#include "pipeline/pipeline.hpp"
#include "random_program.hpp"
#include "sim/cipher_engine.hpp"
#include "sim_test_util.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
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

TEST(FetchQueue, AnEmptyQueueIsRejectedUpFront) {
  // With no queue entry nothing could ever issue: both front ends would
  // burn the whole cycle budget.
  const std::string src = "main:\n  li r1, 1\n  halt\n";
  const auto keys = test_keys();
  auto sofia = sofia_config(keys);
  sofia.fetch_queue = 0;
  EXPECT_THROW(run_image(transform_source(src, keys).image, sofia), Error);
  auto vanilla = test::vanilla_config();
  vanilla.fetch_queue = 0;
  EXPECT_THROW(
      run_image(assembler::link_vanilla(assembler::assemble(src)), vanilla),
      Error);
  // One entry is enough.
  sofia.fetch_queue = 1;
  EXPECT_TRUE(run_image(transform_source(src, keys).image, sofia).ok());
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
  std::function<RunResult(bool trace)> run;
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

/// The configuration `p`'s device runs with, tracing on or off.
SimConfig device_config(bool trace, const pipeline::Pipeline& p) {
  SimConfig cfg = p.effective_sim_config();
  cfg.collect_trace = trace;
  return cfg;
}

/// Every case takes whether to run with tracing on.
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
    cases.push_back({label + "/vanilla", [p, edit](bool trace) {
                       SimConfig cfg = device_config(trace, *p);
                       edit(cfg);
                       return run_image(p->vanilla_image(), cfg);
                     }});
    cases.push_back({label + "/sofia", [p, edit](bool trace) {
                       SimConfig cfg = device_config(trace, *p);
                       edit(cfg);
                       return run_image(p->hardened().image, cfg);
                     }});
  };
  const auto none = [](SimConfig&) {};

  // Every workload at smoke size: the vanilla core and each scheme.
  for (const auto& wl : workloads::all_workloads()) {
    const auto base = workload(wl.name, DeviceProfile::paper_default());
    cases.push_back({wl.name + "/vanilla", [base](bool trace) {
                       return run_image(base->vanilla_image(),
                                        device_config(trace, *base));
                     }});
    for (const auto& scheme : scheme::scheme_names()) {
      const auto p = workload(wl.name, scheme_profile(scheme));
      cases.push_back({wl.name + "/" + scheme, [p](bool trace) {
                         return run_image(p->hardened().image,
                                          device_config(trace, *p));
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
  cases.push_back({"crc32/tampered", [crc](bool trace) {
                     auto img = crc->hardened().image;
                     img.text[img.text.size() / 2] ^= 1u << 7;
                     return run_image(img, device_config(trace, *crc));
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
  cases.push_back({"dispatch/flta", [dispatch](bool trace) {
                     return run_image(dispatch->hardened().image,
                                      device_config(trace, *dispatch));
                   }});
  cases.push_back({"dispatch/flta-retarget", [dispatch](bool trace) {
                     // Aim the first dispatch at the second set's target.
                     auto img = dispatch->hardened().image;
                     std::copy_n(img.data.begin() + 8, 4, img.data.begin());
                     return run_image(img, device_config(trace, *dispatch));
                   }});
  // A store into the text, then a second entry of the rewritten block:
  // reset on the bad MAC, or (null) run the garbled instruction.
  for (const std::string scheme : {"sofia-cbcmac", "null"}) {
    const auto smc = std::make_shared<Pipeline>(
        Pipeline::from_source(kSelfModifying, scheme_profile(scheme), "smc"));
    cases.push_back({"self-modifying/" + scheme, [smc](bool trace) {
                       return run_image(smc->hardened().image,
                                        device_config(trace, *smc));
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

/// Run every case and compare its digest with the pinned one; a mismatch
/// prints the case's new table line.
void expect_pinned(const std::vector<DigestCase>& cases, bool trace,
                   std::span<const PinnedDigest> pinned) {
  ASSERT_EQ(cases.size(), pinned.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::uint64_t got = test::run_digest(cases[i].run(trace));
    char line[96];
    std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxull},",
                  cases[i].label.c_str(),
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(cases[i].label, pinned[i].label);
    EXPECT_EQ(got, pinned[i].digest) << line;
  }
}

TEST(CycleDigest, EveryRunMatchesTheRecordedDigest) {
  expect_pinned(digest_cases(), true, kPinnedDigests);
}

// The same runs untraced: the trace is empty, every other number is pinned
// again, so a shortcut that only untraced runs take shows here.
const PinnedDigest kPinnedUntracedDigests[] = {
    {"adpcm_encode/vanilla", 0x8ff6595a621e9074ull},
    {"adpcm_encode/sofia-cbcmac", 0x8b5c3fd1a2790c63ull},
    {"adpcm_encode/sponge", 0x890f4df60d6583ddull},
    {"adpcm_encode/null", 0x6e2a09b83e39e4d6ull},
    {"adpcm_encode/flta", 0x269817dda106e83bull},
    {"adpcm_decode/vanilla", 0x3ad9acd174abc9fbull},
    {"adpcm_decode/sofia-cbcmac", 0x7e084fb3f81545c7ull},
    {"adpcm_decode/sponge", 0xa30d359005c155faull},
    {"adpcm_decode/null", 0xf0350b621c6af95bull},
    {"adpcm_decode/flta", 0xfad766b6690b2c94ull},
    {"crc32/vanilla", 0x95a2fa123c297c8aull},
    {"crc32/sofia-cbcmac", 0xb66fb605ad4b2411ull},
    {"crc32/sponge", 0x397f7b2974b30298ull},
    {"crc32/null", 0x93aaaadae2282db8ull},
    {"crc32/flta", 0x2fda38df8b112ba4ull},
    {"fir/vanilla", 0x7002d9a7ccb79ffeull},
    {"fir/sofia-cbcmac", 0x7fbfb8c0e0c389d9ull},
    {"fir/sponge", 0x2883fcd4fc1fe5e6ull},
    {"fir/null", 0x5cafe2eabcb3fd33ull},
    {"fir/flta", 0xb3ac3873362e5fe2ull},
    {"quicksort/vanilla", 0x76bf046e0237aa36ull},
    {"quicksort/sofia-cbcmac", 0x49c2583a32d159d6ull},
    {"quicksort/sponge", 0x8830576af70bc3f8ull},
    {"quicksort/null", 0x3184cbac43c51ab4ull},
    {"quicksort/flta", 0xb04afd511467cae5ull},
    {"matmul/vanilla", 0xdd482c95f8f9dc1cull},
    {"matmul/sofia-cbcmac", 0x159ef88438e27d83ull},
    {"matmul/sponge", 0x2b8cac9b00c17259ull},
    {"matmul/null", 0x4d5f2146cacba1cbull},
    {"matmul/flta", 0x71ef3db11d5d453bull},
    {"strsearch/vanilla", 0x1896a59167f9ee95ull},
    {"strsearch/sofia-cbcmac", 0x5eb5dc88a8f78694ull},
    {"strsearch/sponge", 0xdaf775c99b884a77ull},
    {"strsearch/null", 0xc8aa1d0153df0fdcull},
    {"strsearch/flta", 0xd3f1a155e1970d5full},
    {"fib/vanilla", 0x8658ee13151f3eddull},
    {"fib/sofia-cbcmac", 0xbc7c86e29bdd6470ull},
    {"fib/sponge", 0x15c8590f04afd9aaull},
    {"fib/null", 0x2386fe72e3049561ull},
    {"fib/flta", 0x7a262f9d14621accull},
    {"minivm/vanilla", 0x6ee68bc7b0b97b23ull},
    {"minivm/sofia-cbcmac", 0xe6b294bf3ae06882ull},
    {"minivm/sponge", 0xad3128a54019c0caull},
    {"minivm/null", 0xf2dc2e33901b8200ull},
    {"minivm/flta", 0x1a2792205c9d6199ull},
    {"bitcount/vanilla", 0x22971758d70794e0ull},
    {"bitcount/sofia-cbcmac", 0xa3294543e097e4c6ull},
    {"bitcount/sponge", 0x7c52dad8fdc4be2full},
    {"bitcount/null", 0x09a9b0043bb0b9e7ull},
    {"bitcount/flta", 0x41dca8c668ab0592ull},
    {"dijkstra/vanilla", 0x6a7cbbd1658d9dd3ull},
    {"dijkstra/sofia-cbcmac", 0x1d721d4c1f6fb6a6ull},
    {"dijkstra/sponge", 0x75d3a2847aa3fc43ull},
    {"dijkstra/null", 0xb3292b8dd4177522ull},
    {"dijkstra/flta", 0x9bc64bb464eed9c6ull},
    {"crc32/iterative/vanilla", 0x95a2fa123c297c8aull},
    {"crc32/iterative/sofia", 0xa2f25ef4644db68cull},
    {"crc32/non-alternating/vanilla", 0x95a2fa123c297c8aull},
    {"crc32/non-alternating/sofia", 0x2a8b9c3fd734c570ull},
    {"crc32/icache256-miss40/vanilla", 0xd736687b0056012dull},
    {"crc32/icache256-miss40/sofia", 0x73d8db6eb971fbf0ull},
    {"crc32/fetch-queue1/vanilla", 0x95a2fa123c297c8aull},
    {"crc32/fetch-queue1/sofia", 0xb66fb605ad4b2411ull},
    {"crc32/fetch-words1/vanilla", 0x95a2fa123c297c8aull},
    {"crc32/fetch-words1/sofia", 0xf9d2ff784b5219ceull},
    {"crc32/block6/vanilla", 0x95a2fa123c297c8aull},
    {"crc32/block6/sofia", 0x179285f4343de4a7ull},
    {"fib/iterative/vanilla", 0x8658ee13151f3eddull},
    {"fib/iterative/sofia", 0xe8dbc2b6bcd6d7e2ull},
    {"fib/non-alternating/vanilla", 0x8658ee13151f3eddull},
    {"fib/non-alternating/sofia", 0xca9448b08c0004b8ull},
    {"fib/icache256-miss40/vanilla", 0x712f4e32d4054a65ull},
    {"fib/icache256-miss40/sofia", 0x7903f9a339234dc6ull},
    {"fib/fetch-queue1/vanilla", 0x67573ae410207fd5ull},
    {"fib/fetch-queue1/sofia", 0xbc7c86e29bdd6470ull},
    {"fib/fetch-words1/vanilla", 0x8658ee13151f3eddull},
    {"fib/fetch-words1/sofia", 0x4ed077f5ff7370caull},
    {"fib/block6/vanilla", 0x8658ee13151f3eddull},
    {"fib/block6/sofia", 0x3f1378065ab30532ull},
    {"crc32/tampered", 0xfeaae08809354f0cull},
    {"crc32/fetch-fault/vanilla", 0x95a2fa123c297c8aull},
    {"crc32/fetch-fault/sofia", 0x733435b605b7461cull},
    {"crc32/max-cycles20/vanilla", 0x01043b0cf79e8300ull},
    {"crc32/max-cycles20/sofia", 0x9a7080fdef1efc02ull},
    {"crc32/max-cycles1020/vanilla", 0x4a832f551e73ec7dull},
    {"crc32/max-cycles1020/sofia", 0xe485ae5f76e6c44bull},
    {"dispatch/flta", 0x358f7b027b6972feull},
    {"dispatch/flta-retarget", 0xe77766520444266eull},
    {"self-modifying/sofia-cbcmac", 0x36634743f2569806ull},
    {"self-modifying/null", 0x127cabfbf8fbd8caull},
};

TEST(CycleDigest, UntracedRunsMatchTheRecordedDigest) {
  expect_pinned(digest_cases(), false, kPinnedUntracedDigests);
}

// ---- untraced runs equal traced runs ----------------------------------------
//
// A traced run always takes the per-cycle loop; an untraced one may replay
// repeated block segments (src/sim/machine.cpp). Both must report the same
// run: status, reset event, output, exit code, fault and every SimStats
// field.

std::string stats_line(const SimStats& s) {
  std::string out;
  for (const std::uint64_t v :
       {s.cycles, s.insts, s.nops, s.loads, s.stores, s.branches, s.taken,
        s.icache_hits, s.icache_misses, s.fetch_words, s.mac_words,
        s.ctr_ops, s.cbc_ops, s.blocks_fetched, s.mac_verifications,
        s.store_gate_stalls, s.queue_empty_cycles, s.exec_stall_cycles}) {
    out += ' ';
    out += std::to_string(v);
  }
  return out;
}

void expect_same_run(const DigestCase& c) {
  const RunResult traced = c.run(true);
  const RunResult untraced = c.run(false);
  EXPECT_EQ(to_string(traced.status), to_string(untraced.status)) << c.label;
  EXPECT_EQ(traced.reset.cause, untraced.reset.cause) << c.label;
  EXPECT_EQ(traced.reset.cycle, untraced.reset.cycle) << c.label;
  EXPECT_EQ(traced.reset.pc, untraced.reset.pc) << c.label;
  EXPECT_EQ(traced.output, untraced.output) << c.label;
  EXPECT_EQ(traced.exit_code, untraced.exit_code) << c.label;
  EXPECT_EQ(traced.fault, untraced.fault) << c.label;
  EXPECT_EQ(stats_line(traced.stats), stats_line(untraced.stats)) << c.label;
}

// The same store every iteration, into a data word until iteration 9,
// which flips a bit of `victim`'s first text word; every iteration then
// calls victim. The loop repeats its timing, so the store into the text
// comes while earlier iterations are being replayed.
constexpr char kLateTextStore[] = R"(
main:
  li r1, 0
  la r2, slot
  la r3, victim
  lw r4, 0(r3)
  xori r4, r4, 1
  sub r5, r3, r2
loop:
  xori r6, r1, 9
  sltiu r6, r6, 1
  mul r7, r5, r6
  add r7, r2, r7
  sw r4, 0(r7)
  call victim
  addi r1, r1, 1
  li r6, 16
  blt r1, r6, loop
  li r6, 0xFFFF0008
  sw r8, 0(r6)
  halt
victim:
  addi r8, r8, 1
  ret
.data
slot: .word 0
)";

/// A loop that calls `f` from one site. On odd iterations f loads r just
/// before its return; on even ones it branches past the load to the same
/// return. So the two returns enter the return site in states that differ
/// only in r's ready time, and the return site reads r at once.
std::string pending_load_program(unsigned r) {
  std::vector<std::string> helpers;
  for (unsigned h = 1; helpers.size() < 5; ++h)
    if (h != r) helpers.push_back("r" + std::to_string(h));
  const std::string& count = helpers[0];
  const std::string& limit = helpers[1];
  const std::string& odd = helpers[2];
  const std::string& sum = helpers[3];
  const std::string& base = helpers[4];
  std::string reg = "r";
  reg += std::to_string(r);
  return "main:\n  li " + count + ", 0\n  li " + limit + ", 16\n  la " +
         base + ", buf\nloop:\n  andi " + odd + ", " + count +
         ", 1\n  call f\n  add " + sum + ", " + sum + ", " + reg +
         "\n  addi " + count + ", " + count + ", 1\n  blt " + count + ", " +
         limit + ", loop\n  li " + limit + ", 0xFFFF0008\n  sw " + sum +
         ", 0(" + limit + ")\n  halt\nf:\n  beqz " + odd + ", skip\n  lw " +
         reg + ", 0(" + base + ")\nskip:\n  ret\n.data\nbuf: .word 3\n";
}

TEST(CycleBackend, UntracedRunsEqualTracedRuns) {
  using pipeline::DeviceProfile;
  using pipeline::Pipeline;
  // The pinned cases: every workload at smoke size, the front-end and
  // engine variants, tampering, a fetch fault, two cycle budgets, gated
  // dispatch and self-modifying text.
  std::vector<DigestCase> cases = digest_cases();
  const auto sofia_case = [&](const std::string& label,
                              std::shared_ptr<Pipeline> p) {
    cases.push_back({label, [p](bool trace) {
                       return run_image(p->hardened().image,
                                        device_config(trace, *p));
                     }});
  };
  // Every workload × scheme at full size.
  for (const auto& wl : workloads::all_workloads())
    for (const auto& scheme : scheme::scheme_names()) {
      DeviceProfile profile = DeviceProfile::paper_default();
      profile.scheme = scheme;
      sofia_case(wl.name + "/" + scheme + "/full",
                 std::make_shared<Pipeline>(Pipeline::from_workload(
                     wl.name, 1, wl.default_size, profile)));
    }
  // Random programs: loops, calls, forward branches and memory traffic.
  Rng rng(38);
  for (int seed = 0; seed < 200; ++seed) {
    const std::string source = test::random_program(rng);
    for (const auto& scheme : scheme::scheme_names()) {
      DeviceProfile profile = DeviceProfile::paper_default();
      profile.scheme = scheme;
      sofia_case("random " + std::to_string(seed) + "/" + scheme,
                 std::make_shared<Pipeline>(
                     Pipeline::from_source(source, profile, "random")));
    }
  }
  // A store into the text while the loop is replayed: the run must go on
  // cycle by cycle and see the rewritten block.
  for (const auto& scheme : scheme::scheme_names()) {
    DeviceProfile profile = DeviceProfile::paper_default();
    profile.scheme = scheme;
    sofia_case("late-text-store/" + scheme,
               std::make_shared<Pipeline>(
                   Pipeline::from_source(kLateTextStore, profile, "late")));
  }
  // A long load latency keeps results pending across block entries: in
  // pending_load_program(r) two paths reach one return that differ only in
  // r's ready time, and for the random programs many entry states hold a
  // pending result.
  const auto slow = [&](const std::string& label,
                        std::shared_ptr<Pipeline> p) {
    cases.push_back({label + "/load-latency40", [p](bool trace) {
                       SimConfig cfg = device_config(trace, *p);
                       cfg.load_latency = 40;
                       return run_image(p->hardened().image, cfg);
                     }});
  };
  for (const unsigned r : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u,
                           12u, isa::kRegSp})
    for (const auto& scheme : scheme::scheme_names()) {
      DeviceProfile profile = DeviceProfile::paper_default();
      profile.scheme = scheme;
      slow("pending r" + std::to_string(r) + "/" + scheme,
           std::make_shared<Pipeline>(Pipeline::from_source(
               pending_load_program(r), profile, "pending")));
    }
  Rng slow_rng(7);
  for (int seed = 0; seed < 100; ++seed)
    slow("random " + std::to_string(seed),
         std::make_shared<Pipeline>(Pipeline::from_source(
             test::random_program(slow_rng), DeviceProfile::paper_default(),
             "random")));
  for (const DigestCase& c : cases) expect_same_run(c);
}

// Every job's full SimStats pair, both text sizes and its verdict, over the
// full-size scheme matrix on the cycle backend at seed 1: the job list of
// perfbench's paper-sweep workload, hashed the way perfbench prints its
// "simstats digest".
TEST(CycleDigest, SchemeMatrixSimStatsMatchTheRecordedDigest) {
  driver::SweepSpec spec = driver::matrix("scheme");
  spec.base_seed = 1;
  const driver::SweepResult r = driver::run_sweep(spec, 2);
  std::string text;
  const auto put = [&](std::uint64_t v) {
    text += ' ';
    text += std::to_string(v);
  };
  for (const auto& job : r.jobs) {
    put(job.job.index);
    text += job.ok ? " ok" : " failed";
    for (const SimStats* s : {&job.m.vanilla_stats, &job.m.sofia_stats})
      for (const std::uint64_t f :
           {s->cycles, s->insts, s->nops, s->loads, s->stores, s->branches,
            s->taken, s->icache_hits, s->icache_misses, s->fetch_words,
            s->mac_words, s->ctr_ops, s->cbc_ops, s->blocks_fetched,
            s->mac_verifications, s->store_gate_stalls, s->queue_empty_cycles,
            s->exec_stall_cycles})
        put(f);
    put(job.m.vanilla_text_bytes);
    put(job.m.sofia_text_bytes);
    text += '\n';
  }
  EXPECT_EQ(r.jobs.size(), 88u);
  EXPECT_EQ(support::sha256_hex(text),
            "271c200f77af8d9f3b9946593ca6820c358fe1da1fd693976b265846cf913254");
}

}  // namespace
}  // namespace sofia::sim
