// Shared helpers for toolchain + simulator tests: assemble a source string,
// run it on the vanilla pipeline and/or through the full SOFIA transform,
// and compare the two executions.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "assembler/link.hpp"
#include "assembler/program.hpp"
#include "sim/machine.hpp"
#include "xform/transform.hpp"

namespace sofia::test {

inline crypto::KeySet test_keys() {
  // SPECK keeps the unit-test suites fast; RECTANGLE-80 is exercised by
  // dedicated crypto tests and the benches.
  return crypto::KeySet::example(crypto::CipherKind::kSpeck64_128);
}

inline sim::SimConfig vanilla_config() {
  sim::SimConfig cfg;
  return cfg;
}

inline sim::SimConfig sofia_config(const crypto::KeySet& keys,
                                   const xform::BlockPolicy& policy =
                                       xform::BlockPolicy::paper_default()) {
  sim::SimConfig cfg;
  cfg.keys = keys;
  cfg.policy = policy;
  return cfg;
}

inline sim::RunResult run_vanilla(const std::string& source) {
  const auto prog = assembler::assemble(source);
  const auto img = assembler::link_vanilla(prog);
  return sim::run_image(img, vanilla_config());
}

inline xform::TransformResult transform_source(
    const std::string& source, const crypto::KeySet& keys,
    const xform::Options& opts = {}) {
  const auto prog = assembler::assemble(source);
  return xform::transform(prog, keys, opts);
}

inline sim::RunResult run_sofia(const std::string& source,
                                const xform::Options& opts = {}) {
  const auto keys = test_keys();
  const auto result = transform_source(source, keys, opts);
  return sim::run_image(result.image, sofia_config(keys, opts.policy));
}

/// Run both ways and require identical architectural outcomes.
inline void expect_equivalent(const std::string& source,
                              const xform::Options& opts = {}) {
  const auto vres = run_vanilla(source);
  const auto sres = run_sofia(source, opts);
  ASSERT_TRUE(vres.ok()) << "vanilla: " << to_string(vres.status) << " "
                         << vres.fault;
  ASSERT_TRUE(sres.ok()) << "sofia: " << to_string(sres.status) << " "
                         << sres.fault << " reset="
                         << to_string(sres.reset.cause) << " pc=" << std::hex
                         << sres.reset.pc;
  EXPECT_EQ(vres.status, sres.status);
  EXPECT_EQ(vres.exit_code, sres.exit_code);
  EXPECT_EQ(vres.output, sres.output);
}

/// Everything a run reports — status, exit code, reset verdict, fault
/// message, console output, every SimStats field and the trace — folded
/// into one FNV-1a digest, for tests that pin whole runs.
inline std::uint64_t run_digest(const sim::RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(v >> (8 * i));
      h *= 0x100000001b3ull;
    }
  };
  const auto add_string = [&](const std::string& s) {
    add(s.size());
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ull;
    }
  };
  add(static_cast<std::uint64_t>(r.status));
  add(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.exit_code)));
  add(static_cast<std::uint64_t>(r.reset.cause));
  add(r.reset.cycle);
  add(r.reset.pc);
  add_string(r.fault);
  add_string(r.output);
  const sim::SimStats& s = r.stats;
  for (const std::uint64_t v :
       {s.cycles, s.insts, s.nops, s.loads, s.stores, s.branches, s.taken,
        s.icache_hits, s.icache_misses, s.fetch_words, s.mac_words,
        s.ctr_ops, s.cbc_ops, s.blocks_fetched, s.mac_verifications,
        s.store_gate_stalls, s.queue_empty_cycles, s.exec_stall_cycles})
    add(v);
  add(r.trace.size());
  for (const sim::TraceEntry& e : r.trace) {
    add(e.cycle);
    add(e.pc);
    add(e.word);
  }
  return h;
}

}  // namespace sofia::test
