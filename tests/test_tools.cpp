// Integration tests for the command-line tools (sofia_asm / sofia_run /
// sofia_objdump), exercised as real subprocesses. Tool paths are injected
// by CMake.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>

#include "scheme/scheme.hpp"
#include "sim/backend.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

#if !defined(SOFIA_ASM_BIN) || !defined(SOFIA_RUN_BIN) ||      \
    !defined(SOFIA_OBJDUMP_BIN) || !defined(SOFIA_REPORT_BIN) || \
    !defined(SOFIA_SWEEP_BIN) || !defined(SOFIA_FLEET_BIN) ||    \
    !defined(SOFIA_LINT_BIN) || !defined(SOFIA_ATTACK_BIN) ||    \
    !defined(SOFIA_CACHE_BIN)
#error "SOFIA_ASM_BIN / SOFIA_RUN_BIN / SOFIA_OBJDUMP_BIN / SOFIA_REPORT_BIN \
/ SOFIA_SWEEP_BIN / SOFIA_FLEET_BIN / SOFIA_LINT_BIN / \
SOFIA_ATTACK_BIN / SOFIA_CACHE_BIN must be injected by the build: configure \
with -DSOFIA_BUILD_TOOLS=ON so \
tests/CMakeLists.txt can define them from $<TARGET_FILE:...>"
#endif

namespace {

std::string run_command(const std::string& command, int* exit_code) {
  std::array<char, 512> buffer;
  std::string output;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    *exit_code = -1;
    return output;
  }
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr)
    output += buffer.data();
  const int status = pclose(pipe);
  *exit_code = WEXITSTATUS(status);
  return output;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

const char* kSource = R"(
main:
  li r1, 11
  call triple
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  li r2, 0xFFFF0004
  sw r1, 0(r2)
  halt
triple:
  add r2, r1, r1
  add r1, r1, r2
  ret
)";

class Tools : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest -j runs each test case as its own process; per-PID paths keep
    // concurrent cases from racing on shared scratch files.
    const std::string tag = std::to_string(getpid());
    src_ = "/tmp/sofia_tools_test_" + tag + ".s";
    img_ = "/tmp/sofia_tools_test_" + tag + ".img";
    std::ofstream out(src_);
    out << kSource;
  }
  void TearDown() override {
    std::remove(src_.c_str());
    std::remove(img_.c_str());
  }
  std::string src_;
  std::string img_;
};

TEST_F(Tools, AssembleRunSofia) {
  int code = 0;
  const auto asm_out = run_command(
      std::string(SOFIA_ASM_BIN) + " --key-seed 5 " + src_ + " " + img_, &code);
  ASSERT_EQ(code, 0) << asm_out;
  EXPECT_NE(asm_out.find("SOFIA image"), std::string::npos);

  const auto run_out = run_command(
      std::string(SOFIA_RUN_BIN) + " --key-seed 5 " + img_, &code);
  EXPECT_EQ(code, 33);  // exit code = 3 * 11 via the MMIO exit register
  EXPECT_NE(run_out.find("33"), std::string::npos) << run_out;
  EXPECT_NE(run_out.find("status=exited"), std::string::npos) << run_out;
}

TEST_F(Tools, WrongKeySeedResets) {
  int code = 0;
  run_command(std::string(SOFIA_ASM_BIN) + " --quiet --key-seed 5 " + src_ +
                  " " + img_, &code);
  ASSERT_EQ(code, 0);
  const auto run_out = run_command(
      std::string(SOFIA_RUN_BIN) + " --key-seed 6 " + img_, &code);
  EXPECT_EQ(code, 3);
  EXPECT_NE(run_out.find("status=reset"), std::string::npos) << run_out;
  EXPECT_NE(run_out.find("mac-mismatch"), std::string::npos) << run_out;
}

TEST_F(Tools, VanillaPath) {
  int code = 0;
  run_command(std::string(SOFIA_ASM_BIN) + " --vanilla --quiet " + src_ + " " +
                  img_, &code);
  ASSERT_EQ(code, 0);
  const auto run_out = run_command(std::string(SOFIA_RUN_BIN) + " " + img_, &code);
  EXPECT_EQ(code, 33);
  EXPECT_NE(run_out.find("[vanilla core]"), std::string::npos) << run_out;
}

TEST_F(Tools, ObjdumpShowsCiphertextForSofia) {
  int code = 0;
  run_command(std::string(SOFIA_ASM_BIN) + " --quiet " + src_ + " " + img_,
              &code);
  ASSERT_EQ(code, 0);
  const auto dump = run_command(std::string(SOFIA_OBJDUMP_BIN) + " " + img_, &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(dump.find("ciphertext only"), std::string::npos) << dump;
  // No disassembly of the protected text.
  EXPECT_EQ(dump.find("addi"), std::string::npos) << dump;
}

// A 40-byte header claiming 0xFFFFFFFF text words and data bytes is a
// truncated image, not an allocation to attempt.
TEST_F(Tools, ObjdumpRejectsCountsPastTheEnd) {
  std::string header("SOFI\x01\x00", 6);
  header.append(26, '\0');   // flags .. entry_prev
  header.append(8, '\xFF');  // text words, data bytes
  std::ofstream(img_, std::ios::binary) << header;
  int code = 0;
  const auto dump =
      run_command(std::string(SOFIA_OBJDUMP_BIN) + " " + img_, &code);
  EXPECT_EQ(code, 1) << dump;
  EXPECT_NE(dump.find("image: truncated"), std::string::npos) << dump;
}

TEST_F(Tools, ObjdumpDisassemblesVanilla) {
  int code = 0;
  run_command(std::string(SOFIA_ASM_BIN) + " --vanilla --quiet " + src_ + " " +
                  img_, &code);
  const auto dump = run_command(std::string(SOFIA_OBJDUMP_BIN) + " " + img_, &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(dump.find("add r2, r1, r1"), std::string::npos) << dump;
}

TEST_F(Tools, StatsFlagPrintsCounters) {
  int code = 0;
  run_command(std::string(SOFIA_ASM_BIN) + " --quiet " + src_ + " " + img_,
              &code);
  const auto run_out = run_command(
      std::string(SOFIA_RUN_BIN) + " --stats " + img_, &code);
  EXPECT_NE(run_out.find("verifications="), std::string::npos) << run_out;
}

TEST_F(Tools, ReportRunsHealthy) {
  int code = 0;
  const auto out = run_command(std::string(SOFIA_REPORT_BIN) + " --quick", &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("Table I"), std::string::npos);
  EXPECT_NE(out.find("46795"), std::string::npos);
  // The attack matrix runs against every registered scheme, and the fault
  // table has a row per core.
  for (const auto& scheme : sofia::scheme::scheme_names())
    EXPECT_NE(out.find("Attack matrix on the SOFIA device — scheme " + scheme +
                       " ("),
              std::string::npos)
        << "no attack matrix for scheme '" << scheme << "'\n" << out;
  EXPECT_NE(out.find("\nvanilla "), std::string::npos) << out;
  EXPECT_NE(out.find("\nSOFIA "), std::string::npos) << out;
}

TEST_F(Tools, ReportIsDeterministic) {
  // Every seed is fixed and nothing wall-clock is printed, so two runs
  // print the same bytes.
  const std::string report =
      "( " + std::string(SOFIA_REPORT_BIN) + " --quick 2>/dev/null )";
  int code = 0;
  const auto first = run_command(report, &code);
  EXPECT_EQ(code, 0) << first;
  const auto second = run_command(report, &code);
  EXPECT_EQ(code, 0) << second;
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST_F(Tools, BadUsageExitsNonZero) {
  int code = 0;
  run_command(std::string(SOFIA_ASM_BIN), &code);
  EXPECT_NE(code, 0);
  run_command(std::string(SOFIA_RUN_BIN) + " /nonexistent.img", &code);
  EXPECT_NE(code, 0);
}

TEST_F(Tools, ReportRejectsUnknownFlag) {
  // Regression: flags used to be recognized only as exactly argv[1];
  // anything else silently ran the full (slow) report.
  int code = 0;
  const auto out = run_command(std::string(SOFIA_REPORT_BIN) + " --bogus", &code);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find("usage"), std::string::npos) << out;
  EXPECT_NE(out.find("--bogus"), std::string::npos) << out;
}

TEST_F(Tools, ReportAcceptsFlagsInAnyPosition) {
  int code = 0;
  const auto out = run_command(
      std::string(SOFIA_REPORT_BIN) + " --threads 2 --quick", &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("Table I"), std::string::npos) << out;
}

TEST_F(Tools, SweepSmokeJsonIdenticalAcrossThreadCounts) {
  const std::string tag = std::to_string(getpid());
  const std::string json1 = "/tmp/sofia_sweep_" + tag + "_t1.json";
  const std::string json8 = "/tmp/sofia_sweep_" + tag + "_t8.json";
  int code = 0;
  const auto out1 = run_command(std::string(SOFIA_SWEEP_BIN) +
                                    " --smoke --quiet --threads 1 --json " +
                                    json1, &code);
  EXPECT_EQ(code, 0) << out1;
  const auto out8 = run_command(std::string(SOFIA_SWEEP_BIN) +
                                    " --smoke --quiet --threads 8 --json " +
                                    json8, &code);
  EXPECT_EQ(code, 0) << out8;
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto doc1 = slurp(json1);
  EXPECT_FALSE(doc1.empty());
  EXPECT_EQ(doc1, slurp(json8));
  EXPECT_NE(doc1.find("\"schema\": \"sofia-sweep-v6\""), std::string::npos);
  std::remove(json1.c_str());
  std::remove(json8.c_str());
}

TEST_F(Tools, AssembleRunSpeck64) {
  // The --cipher axis round-trips: a Speck64-keyed image is runnable from
  // the CLI when the device profile names the same cipher.
  int code = 0;
  const auto asm_out = run_command(
      std::string(SOFIA_ASM_BIN) + " --cipher speck64 --key-seed 5 " + src_ +
          " " + img_, &code);
  ASSERT_EQ(code, 0) << asm_out;
  const auto run_out = run_command(
      std::string(SOFIA_RUN_BIN) + " --cipher speck64 --key-seed 5 " + img_,
      &code);
  EXPECT_EQ(code, 33) << run_out;
  EXPECT_NE(run_out.find("status=exited"), std::string::npos) << run_out;
}

TEST_F(Tools, FunctionalBackendRunsAndAgrees) {
  // sofia_run --backend functional executes the same hardened image with
  // identical architectural results (exit code via the MMIO exit register).
  int code = 0;
  run_command(std::string(SOFIA_ASM_BIN) + " --quiet --key-seed 5 " + src_ +
                  " " + img_, &code);
  ASSERT_EQ(code, 0);
  const auto run_out = run_command(std::string(SOFIA_RUN_BIN) +
                                       " --backend functional --key-seed 5 " +
                                       img_, &code);
  EXPECT_EQ(code, 33) << run_out;
  EXPECT_NE(run_out.find("status=exited"), std::string::npos) << run_out;
  EXPECT_NE(run_out.find("backend=functional"), std::string::npos) << run_out;
}

TEST_F(Tools, FunctionalBackendStillResetsOnKeyMismatch) {
  int code = 0;
  run_command(std::string(SOFIA_ASM_BIN) + " --quiet --key-seed 5 " + src_ +
                  " " + img_, &code);
  ASSERT_EQ(code, 0);
  const auto run_out = run_command(std::string(SOFIA_RUN_BIN) +
                                       " --backend functional --key-seed 6 " +
                                       img_, &code);
  EXPECT_EQ(code, 3) << run_out;
  EXPECT_NE(run_out.find("status=reset"), std::string::npos) << run_out;
  EXPECT_NE(run_out.find("mac-mismatch"), std::string::npos) << run_out;
}

TEST_F(Tools, UnknownBackendRejectedWithChoices) {
  int code = 0;
  const auto out = run_command(
      std::string(SOFIA_RUN_BIN) + " --backend warp " + img_, &code);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find("invalid value 'warp'"), std::string::npos) << out;
  EXPECT_NE(out.find("cycle, functional"), std::string::npos) << out;
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
}

TEST_F(Tools, ReportSuppressesTimingRowsForFunctionalBackend) {
  // The functional backend's "cycles" are instruction counts; the report
  // must refuse to present them as the paper's timing reproduction.
  int code = 0;
  const auto out = run_command(
      std::string(SOFIA_REPORT_BIN) + " --quick --backend functional", &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("n/a"), std::string::npos) << out;
  EXPECT_NE(out.find("not cycle-accurate"), std::string::npos) << out;
  EXPECT_NE(out.find("ADPCM text expansion"), std::string::npos) << out;
}

TEST_F(Tools, SweepFunctionalBackendLandsInTheDocument) {
  const std::string tag = std::to_string(getpid());
  const std::string json = "/tmp/sofia_sweep_" + tag + "_fn.json";
  int code = 0;
  const auto out = run_command(std::string(SOFIA_SWEEP_BIN) +
                                   " --smoke --quiet --backend functional "
                                   "--threads 2 --json " + json, &code);
  EXPECT_EQ(code, 0) << out;
  std::ifstream in(json, std::ios::binary);
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(doc.find("\"backend\": \"functional\""), std::string::npos);
  EXPECT_NE(doc.find("backend=functional"), std::string::npos);  // fingerprint
  std::remove(json.c_str());
}

TEST_F(Tools, CipherMismatchResetsInsteadOfCrashing) {
  // Image built for a Speck64 device, run on the default RECTANGLE-80
  // device: architectural reset (mac-mismatch), exit 3 — never a crash.
  int code = 0;
  run_command(std::string(SOFIA_ASM_BIN) + " --quiet --cipher speck64 " + src_ +
                  " " + img_, &code);
  ASSERT_EQ(code, 0);
  const auto run_out = run_command(std::string(SOFIA_RUN_BIN) + " " + img_, &code);
  EXPECT_EQ(code, 3) << run_out;
  EXPECT_NE(run_out.find("status=reset"), std::string::npos) << run_out;
  EXPECT_NE(run_out.find("mac-mismatch"), std::string::npos) << run_out;
}

TEST_F(Tools, UnknownCipherRejected) {
  // --cipher is a choice-typed flag: a bad value is a parse error (usage +
  // exit 2) that names the accepted set, uniformly with every other flag.
  int code = 0;
  const auto out = run_command(
      std::string(SOFIA_ASM_BIN) + " --cipher des " + src_ + " " + img_, &code);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find("invalid value 'des'"), std::string::npos) << out;
  EXPECT_NE(out.find("rectangle80"), std::string::npos) << out;
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
}

TEST_F(Tools, EveryToolRejectsUnknownFlagsWithUsage) {
  // The shared CLI layer: unknown flag -> diagnostic + usage, exit 2,
  // uniformly across all eight front-ends.
  for (const char* tool : {SOFIA_ASM_BIN, SOFIA_RUN_BIN, SOFIA_OBJDUMP_BIN,
                           SOFIA_REPORT_BIN, SOFIA_SWEEP_BIN, SOFIA_FLEET_BIN,
                           SOFIA_LINT_BIN, SOFIA_ATTACK_BIN}) {
    int code = 0;
    const auto out = run_command(std::string(tool) + " --frobnicate", &code);
    EXPECT_EQ(code, 2) << tool << ": " << out;
    EXPECT_NE(out.find("unknown option '--frobnicate'"), std::string::npos)
        << tool << ": " << out;
    EXPECT_NE(out.find("usage:"), std::string::npos) << tool << ": " << out;
  }
}

TEST_F(Tools, EveryToolPrintsHelp) {
  for (const char* tool : {SOFIA_ASM_BIN, SOFIA_RUN_BIN, SOFIA_OBJDUMP_BIN,
                           SOFIA_REPORT_BIN, SOFIA_SWEEP_BIN, SOFIA_FLEET_BIN,
                           SOFIA_LINT_BIN, SOFIA_ATTACK_BIN}) {
    int code = 0;
    const auto out = run_command(std::string(tool) + " --help", &code);
    EXPECT_EQ(code, 0) << tool << ": " << out;
    EXPECT_NE(out.find("usage:"), std::string::npos) << tool << ": " << out;
  }
}

TEST_F(Tools, HelpStaysInSyncWithTheLiveRegistries) {
  // The --backend/--scheme choice sets are built from sim::backend_names()
  // and scheme::scheme_names() at tool startup, and cli::Parser renders
  // every choice into --help. Registering a new backend or scheme must
  // surface in the user-facing help with no tool edits — this test fails
  // if a tool ever goes back to a hard-coded list.
  for (const char* tool : {SOFIA_RUN_BIN, SOFIA_SWEEP_BIN, SOFIA_REPORT_BIN,
                           SOFIA_FLEET_BIN, SOFIA_ATTACK_BIN}) {
    int code = 0;
    const auto out = run_command(std::string(tool) + " --help", &code);
    ASSERT_EQ(code, 0) << tool << ": " << out;
    for (const auto& backend : sofia::sim::backend_names())
      EXPECT_NE(out.find(backend), std::string::npos)
          << tool << " --help does not list backend '" << backend << "'";
    for (const auto& scheme : sofia::scheme::scheme_names())
      EXPECT_NE(out.find(scheme), std::string::npos)
          << tool << " --help does not list scheme '" << scheme << "'";
  }
  // sofia_asm carries --scheme only (it has no execution side).
  int code = 0;
  const auto out = run_command(std::string(SOFIA_ASM_BIN) + " --help", &code);
  ASSERT_EQ(code, 0) << out;
  for (const auto& scheme : sofia::scheme::scheme_names())
    EXPECT_NE(out.find(scheme), std::string::npos)
        << "sofia_asm --help does not list scheme '" << scheme << "'";
}

TEST_F(Tools, SweepShardMergeIsByteIdenticalToUnsharded) {
  // The multi-machine contract, end to end through the CLI: two shards run
  // separately, merged, must reproduce the unsharded document byte for
  // byte.
  const std::string tag = std::to_string(getpid());
  const std::string whole = "/tmp/sofia_shard_" + tag + "_whole.json";
  const std::string s0 = "/tmp/sofia_shard_" + tag + "_0.json";
  const std::string s1 = "/tmp/sofia_shard_" + tag + "_1.json";
  const std::string merged = "/tmp/sofia_shard_" + tag + "_merged.json";
  int code = 0;
  auto out = run_command(std::string(SOFIA_SWEEP_BIN) +
                             " --smoke --quiet --json " + whole, &code);
  EXPECT_EQ(code, 0) << out;
  out = run_command(std::string(SOFIA_SWEEP_BIN) +
                        " --smoke --quiet --shard 0/2 --json " + s0, &code);
  EXPECT_EQ(code, 0) << out;
  out = run_command(std::string(SOFIA_SWEEP_BIN) +
                        " --smoke --quiet --shard 1/2 --json " + s1, &code);
  EXPECT_EQ(code, 0) << out;
  out = run_command(std::string(SOFIA_SWEEP_BIN) + " --merge " + merged + " " +
                        s0 + " " + s1, &code);
  EXPECT_EQ(code, 0) << out;

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto whole_doc = slurp(whole);
  EXPECT_FALSE(whole_doc.empty());
  EXPECT_EQ(whole_doc, slurp(merged));
  EXPECT_NE(slurp(s0).find("\"shard\": \"0/2\""), std::string::npos);

  // Merging an incomplete shard set must fail loudly.
  out = run_command(std::string(SOFIA_SWEEP_BIN) + " --merge " + merged + " " +
                        s0, &code);
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("missing"), std::string::npos) << out;

  for (const auto& p : {whole, s0, s1, merged}) std::remove(p.c_str());
}

TEST_F(Tools, SweepMergePrintsTheUnshardedTable) {
  // The paper table is rendered from the document, so a 2-shard run merged
  // back (and a 2-worker fleet) prints exactly the unsharded run's table;
  // the shards themselves print none.
  const std::string tag = std::to_string(getpid());
  const std::string base = "/tmp/sofia_table_" + tag;
  const std::string sweep =
      std::string(SOFIA_SWEEP_BIN) + " --matrix icache --smoke --quiet";
  const std::string title = "I-cache size sweep";
  const auto table_of = [&](const std::string& log) {
    const auto at = log.find(title);
    return at == std::string::npos ? std::string() : log.substr(at);
  };
  int code = 0;
  const auto whole = run_command(sweep + " --json " + base + "_whole.json", &code);
  ASSERT_EQ(code, 0) << whole;
  const auto table = table_of(whole);
  ASSERT_FALSE(table.empty()) << whole;
  EXPECT_NE(table.find("4096 B I-cache"), std::string::npos) << table;
  for (const char* k : {"0", "1"}) {
    const auto shard = run_command(sweep + " --shard " + k + "/2 --json " +
                                       base + "_" + k + ".json", &code);
    EXPECT_EQ(code, 0) << shard;
    EXPECT_EQ(shard.find(title), std::string::npos) << shard;
  }
  const auto merged =
      run_command(std::string(SOFIA_SWEEP_BIN) + " --merge " + base +
                      "_merged.json " + base + "_1.json " + base + "_0.json",
                  &code);
  EXPECT_EQ(code, 0) << merged;
  EXPECT_EQ(table_of(merged), table);
  const auto fleet = run_command(
      std::string(SOFIA_FLEET_BIN) + " --matrix icache --smoke --workers 2 "
          "--threads 1 --quiet --json " + base + "_fleet.json", &code);
  EXPECT_EQ(code, 0) << fleet;
  EXPECT_EQ(table_of(fleet), table);
  for (const char* suffix : {"_whole", "_0", "_1", "_merged", "_fleet"})
    std::remove((base + suffix + ".json").c_str());
}

TEST_F(Tools, SweepMergeRejectsHostileDocuments) {
  // A negative job_count and a nesting bomb each end in a clean
  // "sofia_sweep:" error, not an abort or a stack overflow.
  const std::string tag = std::to_string(getpid());
  const std::string in = "/tmp/sofia_merge_hostile_" + tag + ".json";
  const std::string out = "/tmp/sofia_merge_hostile_" + tag + "_out.json";
  for (const std::string& doc :
       {std::string("{\"schema\":\"sofia-sweep-v6\",\"sweep\":\"x\","
                    "\"job_count\":-1,\"jobs\":[]}"),
        std::string(200'000, '[')}) {
    std::ofstream(in, std::ios::binary) << doc;
    int code = 0;
    const auto log = run_command(
        std::string(SOFIA_SWEEP_BIN) + " --merge " + out + " " + in, &code);
    EXPECT_EQ(code, 1) << log;
    EXPECT_EQ(log.rfind("sofia_sweep: ", 0), 0u) << log;
  }
  std::remove(in.c_str());
  std::remove(out.c_str());
}

TEST_F(Tools, SweepMergeExitsOneOnAFailedJob) {
  // --merge returns the unsharded run's verdict: a shard carrying a failed
  // job merges with exit 1, as the single-process run exits 1.
  const std::string base =
      "/tmp/sofia_merge_verdict_" + std::to_string(getpid());
  int code = 0;
  for (const char* k : {"0", "1"}) {
    const auto out = run_command(std::string(SOFIA_SWEEP_BIN) +
                                     " --smoke --quiet --shard " + k +
                                     "/2 --json " + base + "_" + k + ".json",
                                 &code);
    ASSERT_EQ(code, 0) << out;
  }
  std::string forged = read_file(base + "_1.json");
  const auto at = forged.find("\"ok\": true");
  ASSERT_NE(at, std::string::npos) << forged;
  forged.replace(at, 10, "\"ok\": false");
  std::ofstream(base + "_1.json", std::ios::binary) << forged;
  const auto out = run_command(std::string(SOFIA_SWEEP_BIN) + " --merge " +
                                   base + "_m.json " + base + "_0.json " +
                                   base + "_1.json",
                               &code);
  EXPECT_EQ(code, 1) << out;
  for (const char* suffix : {"_0", "_1", "_m"})
    std::remove((base + suffix + ".json").c_str());
}

TEST_F(Tools, SweepRejectsBadShard) {
  int code = 0;
  const auto out = run_command(
      std::string(SOFIA_SWEEP_BIN) + " --smoke --quiet --shard 2/2", &code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("out of range"), std::string::npos) << out;
}

TEST_F(Tools, SweepJsonDashStreamsTheDocumentToStdout) {
  // `--json -` must put the document — and nothing else — on stdout, so a
  // coordinator can collect shards over any stdio transport. Progress moves
  // to stderr (discarded here so the capture is pure stdout).
  const std::string tag = std::to_string(getpid());
  const std::string json = "/tmp/sofia_sweep_" + tag + "_dash.json";
  int code = 0;
  const auto file_out = run_command(std::string(SOFIA_SWEEP_BIN) +
                                        " --smoke --quiet --json " + json,
                                    &code);
  ASSERT_EQ(code, 0) << file_out;
  const auto stdout_doc = run_command(
      "( " + std::string(SOFIA_SWEEP_BIN) +
          " --smoke --quiet --json - 2>/dev/null )", &code);
  EXPECT_EQ(code, 0);
  std::ifstream in(json, std::ios::binary);
  const std::string file_doc{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  EXPECT_EQ(stdout_doc, file_doc);
  std::remove(json.c_str());
}

TEST_F(Tools, FleetMergesByteIdenticallyToASingleSweep) {
  // The acceptance contract: sofia_fleet with 2 local subprocess workers on
  // the smoke matrix == one unsharded sofia_sweep run, byte for byte. The
  // default --launch resolves the sofia_sweep sitting next to sofia_fleet.
  const std::string tag = std::to_string(getpid());
  const std::string fleet_json = "/tmp/sofia_fleet_" + tag + ".json";
  const std::string single_json = "/tmp/sofia_fleet_" + tag + "_single.json";
  int code = 0;
  const auto fleet_out = run_command(
      std::string(SOFIA_FLEET_BIN) + " --smoke --workers 2 --threads 1 --json " +
          fleet_json, &code);
  EXPECT_EQ(code, 0) << fleet_out;
  EXPECT_NE(fleet_out.find("merged 2 shard(s)"), std::string::npos) << fleet_out;
  const auto single_out = run_command(
      std::string(SOFIA_SWEEP_BIN) + " --smoke --quiet --threads 2 --json " +
          single_json, &code);
  EXPECT_EQ(code, 0) << single_out;

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto fleet_doc = slurp(fleet_json);
  EXPECT_FALSE(fleet_doc.empty());
  EXPECT_EQ(fleet_doc, slurp(single_json));
  std::remove(fleet_json.c_str());
  std::remove(single_json.c_str());
}

TEST_F(Tools, FleetStreamsMergedDocumentToStdoutByDefault) {
  int code = 0;
  const auto doc = run_command(
      "( " + std::string(SOFIA_FLEET_BIN) +
          " --smoke --workers 2 --threads 1 2>/dev/null )", &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(doc.find("\"schema\": \"sofia-sweep-v6\""), std::string::npos)
      << doc.substr(0, 200);
  EXPECT_EQ(doc.rfind("sweep ", 0), std::string::npos);  // no log lines mixed in
}

TEST_F(Tools, FleetRejectsZeroWorkersAndFailingLaunches) {
  int code = 0;
  auto out = run_command(std::string(SOFIA_FLEET_BIN) + " --workers 0", &code);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find("--workers"), std::string::npos) << out;
  // A launch command that exits nonzero without a document must fail the
  // fleet, naming the worker.
  out = run_command(std::string(SOFIA_FLEET_BIN) +
                        " --smoke --workers 2 --launch false --json /dev/null",
                    &code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("worker"), std::string::npos) << out;
  // The same for a campaign fleet, which fails with sofia_attack's error
  // code: its 1 means escapes.
  out = run_command(std::string(SOFIA_FLEET_BIN) +
                        " --tool attack --smoke --workers 2 --launch false "
                        "--json /dev/null",
                    &code);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find("worker"), std::string::npos) << out;
  // A sweep matrix means nothing to a campaign.
  out = run_command(std::string(SOFIA_FLEET_BIN) +
                        " --tool attack --matrix scheme --json /dev/null",
                    &code);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find("--matrix"), std::string::npos) << out;
}

TEST_F(Tools, FleetRunsACampaignByteIdenticallyToASingleAttack) {
  // --tool attack: 2 shard workers merged through campaign::merge_json ==
  // one unsharded sofia_attack run, byte for byte and exit code for exit
  // code. Campaign-only flags ride in --launch.
  const std::string tag = std::to_string(getpid());
  const std::string fleet_json = "/tmp/sofia_fleet_attack_" + tag + ".json";
  const std::string single_json =
      "/tmp/sofia_fleet_attack_" + tag + "_single.json";
  int fleet_code = 0;
  const auto fleet_out = run_command(
      std::string(SOFIA_FLEET_BIN) + " --tool attack --smoke --workers 2 " +
          "--threads 1 --launch '" + SOFIA_ATTACK_BIN + " --jobs 50' --json " +
          fleet_json, &fleet_code);
  EXPECT_NE(fleet_out.find("merged 2 shard(s)"), std::string::npos)
      << fleet_out;
  int single_code = 0;
  const auto single_out = run_command(
      std::string(SOFIA_ATTACK_BIN) + " --campaign --smoke --jobs 50 --quiet " +
          "--json " + single_json, &single_code);
  EXPECT_EQ(single_code, 0) << single_out;
  EXPECT_EQ(fleet_code, single_code) << fleet_out;

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto fleet_doc = slurp(fleet_json);
  EXPECT_NE(fleet_doc.find("\"schema\": \"sofia-attack-campaign-v1\""),
            std::string::npos)
      << fleet_doc.substr(0, 200);
  EXPECT_EQ(fleet_doc, slurp(single_json));

  // sofia_attack exits 1 when an authenticated cell has escapes and still
  // writes its document: a worker exiting 1 has returned a valid shard, and
  // the fleet's exit code is the merged document's verdict.
  const std::string wrapper = "/tmp/sofia_fleet_exit1_" + tag + ".sh";
  {
    std::ofstream script(wrapper);
    script << "#!/bin/sh\n'" << SOFIA_ATTACK_BIN << "' \"$@\"\nexit 1\n";
  }
  std::filesystem::permissions(wrapper, std::filesystem::perms::owner_all);
  int code = 0;
  const auto out = run_command(
      std::string(SOFIA_FLEET_BIN) + " --tool attack --smoke --workers 2 " +
          "--threads 1 --launch '" + wrapper + " --jobs 50' --json " +
          fleet_json, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_EQ(slurp(fleet_json), slurp(single_json));
  std::remove(wrapper.c_str());
  std::remove(fleet_json.c_str());
  std::remove(single_json.c_str());
}

TEST_F(Tools, LintCleanWorkloadAssertsClean) {
  int code = 0;
  const auto out = run_command(
      std::string(SOFIA_LINT_BIN) + " --workload fib --size 8 --assert-clean",
      &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("0 error(s)"), std::string::npos) << out;
}

TEST_F(Tools, LintSourceFileAndSavedImage) {
  int code = 0;
  run_command(std::string(SOFIA_ASM_BIN) + " --quiet --key-seed 5 " + src_ +
                  " " + img_, &code);
  ASSERT_EQ(code, 0);
  // The saved image against its program and key material: clean.
  const auto out = run_command(std::string(SOFIA_LINT_BIN) + " --key-seed 5 " +
                                   src_ + " --image " + img_ +
                                   " --assert-clean", &code);
  EXPECT_EQ(code, 0) << out;
  // The same image under the wrong keys: --assert-clean exits 1. Seed-
  // derived key sets carry their own omega, so the version nonce is the
  // first cross-check that trips.
  const auto bad = run_command(std::string(SOFIA_LINT_BIN) + " --key-seed 6 " +
                                   src_ + " --image " + img_ +
                                   " --assert-clean", &code);
  EXPECT_EQ(code, 1) << bad;
  EXPECT_NE(bad.find("omega-mismatch"), std::string::npos) << bad;
}

TEST_F(Tools, LintFlagsTamperedImage) {
  int code = 0;
  run_command(std::string(SOFIA_ASM_BIN) + " --quiet --key-seed 5 " + src_ +
                  " " + img_, &code);
  ASSERT_EQ(code, 0);
  // Swap two ciphertext words across blocks. The swap preserves the image
  // file's byte-sum checksum, so the tamper survives loading and must be
  // caught by the lint, not the file format.
  {
    std::fstream f(img_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const long header = 40;  // sofia image header, then text words
    char a[4], b[4];
    f.seekg(header + 4 * 2);
    f.read(a, 4);
    f.seekg(header + 4 * 10);
    f.read(b, 4);
    f.seekp(header + 4 * 2);
    f.write(b, 4);
    f.seekp(header + 4 * 10);
    f.write(a, 4);
  }
  const auto out = run_command(std::string(SOFIA_LINT_BIN) + " --key-seed 5 " +
                                   src_ + " --image " + img_ +
                                   " --assert-clean", &code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("error["), std::string::npos) << out;
}

TEST_F(Tools, LintJsonIsDeterministic) {
  int code = 0;
  const std::string cmd = std::string(SOFIA_LINT_BIN) +
                          " --workload crc32 --size 16 --quiet --json -";
  const auto doc1 = run_command(cmd, &code);
  EXPECT_EQ(code, 0) << doc1;
  const auto doc2 = run_command(cmd, &code);
  EXPECT_EQ(code, 0);
  EXPECT_EQ(doc1, doc2);
  EXPECT_NE(doc1.find("\"schema\": \"sofia-lint-v2\""), std::string::npos)
      << doc1;
  EXPECT_NE(doc1.find("\"clean\": true"), std::string::npos) << doc1;
  EXPECT_NE(doc1.find("\"indirects\""), std::string::npos) << doc1;
}

TEST_F(Tools, LintPrintsRuleCatalog) {
  int code = 0;
  const auto out = run_command(std::string(SOFIA_LINT_BIN) + " --rules", &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("edge-seal-mismatch"), std::string::npos) << out;
  EXPECT_NE(out.find("unreachable-block"), std::string::npos) << out;
}

TEST_F(Tools, LintRulesValidatesIdsAgainstTheCatalog) {
  int code = 0;
  // Known ids print exactly those catalog rows.
  const auto known = run_command(
      std::string(SOFIA_LINT_BIN) + " --rules store-to-text-proven", &code);
  EXPECT_EQ(code, 0) << known;
  EXPECT_NE(known.find("store-to-text-proven"), std::string::npos) << known;
  EXPECT_EQ(known.find("unreachable-block"), std::string::npos) << known;
  // An unknown id exits 2, names the id and lists the valid ones.
  const auto bad = run_command(
      std::string(SOFIA_LINT_BIN) + " --rules no-such-rule", &code);
  EXPECT_EQ(code, 2) << bad;
  EXPECT_NE(bad.find("unknown rule id 'no-such-rule'"), std::string::npos)
      << bad;
  EXPECT_NE(bad.find("edge-seal-mismatch"), std::string::npos) << bad;
  // Rule ids without --rules are a usage error, not a lint input.
  const auto stray = run_command(
      std::string(SOFIA_LINT_BIN) + " --workload fib extra-id", &code);
  EXPECT_EQ(code, 2) << stray;
}

TEST_F(Tools, LintSarifIsDeterministicSarif210) {
  int code = 0;
  const std::string cmd = std::string(SOFIA_LINT_BIN) +
                          " --workload crc32 --size 16 --quiet --sarif -";
  const auto doc1 = run_command(cmd, &code);
  EXPECT_EQ(code, 0) << doc1;
  const auto doc2 = run_command(cmd, &code);
  EXPECT_EQ(code, 0);
  EXPECT_EQ(doc1, doc2);
  EXPECT_NE(doc1.find("\"version\": \"2.1.0\""), std::string::npos) << doc1;
  EXPECT_NE(doc1.find("\"name\": \"sofia-lint\""), std::string::npos) << doc1;
  EXPECT_NE(doc1.find("\"id\": \"edge-seal-mismatch\""), std::string::npos)
      << doc1;
}

TEST_F(Tools, LintRejectsEmptyAndConflictingInputs) {
  int code = 0;
  const auto none = run_command(std::string(SOFIA_LINT_BIN), &code);
  EXPECT_EQ(code, 2) << none;
  EXPECT_NE(none.find("nothing to lint"), std::string::npos) << none;
  const auto both = run_command(
      std::string(SOFIA_LINT_BIN) + " --workload fib " + src_, &code);
  EXPECT_EQ(code, 2) << both;
}

TEST_F(Tools, SweepLintPrefilterKeepsTheDocumentIdentical) {
  // A clean matrix must produce byte-identical documents with and without
  // the --lint prefilter (lint only adds to *failing* job records).
  int code = 0;
  const std::string tag = std::to_string(getpid());
  const std::string plain = "/tmp/sofia_lint_sweep_" + tag + "_a.json";
  const std::string linted = "/tmp/sofia_lint_sweep_" + tag + "_b.json";
  run_command(std::string(SOFIA_SWEEP_BIN) +
                  " --smoke --quiet --threads 2 --json " + plain, &code);
  EXPECT_EQ(code, 0);
  run_command(std::string(SOFIA_SWEEP_BIN) +
                  " --smoke --lint --quiet --threads 2 --json " + linted,
              &code);
  EXPECT_EQ(code, 0);
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto doc = slurp(plain);
  EXPECT_FALSE(doc.empty());
  EXPECT_EQ(doc, slurp(linted));
  std::remove(plain.c_str());
  std::remove(linted.c_str());
}

TEST_F(Tools, AttackSmokeCampaignDetectsEverything) {
  // The CI gate in miniature: the smoke campaign must report 100% detection
  // for every authenticated scheme and exit 0.
  const std::string tag = std::to_string(getpid());
  const std::string json = "/tmp/sofia_attack_" + tag + "_smoke.json";
  int code = 0;
  const auto out = run_command(
      std::string(SOFIA_ATTACK_BIN) +
          " --campaign --smoke --jobs 60 --threads 2 --json " + json, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("authenticated schemes clean"), std::string::npos) << out;
  std::ifstream in(json, std::ios::binary);
  const std::string doc{std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>()};
  EXPECT_NE(doc.find("\"schema\": \"sofia-attack-campaign-v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"scheme\": \"sofia-cbcmac\""), std::string::npos);
  std::remove(json.c_str());
}

TEST_F(Tools, AttackShardMergeIsByteIdenticalToUnsharded) {
  const std::string tag = std::to_string(getpid());
  const std::string whole = "/tmp/sofia_attack_" + tag + "_whole.json";
  const std::string s0 = "/tmp/sofia_attack_" + tag + "_0.json";
  const std::string s1 = "/tmp/sofia_attack_" + tag + "_1.json";
  const std::string merged = "/tmp/sofia_attack_" + tag + "_merged.json";
  const std::string base = std::string(SOFIA_ATTACK_BIN) +
                           " --campaign --smoke --jobs 40 --quiet --threads 2";
  int code = 0;
  auto out = run_command(base + " --json " + whole, &code);
  EXPECT_EQ(code, 0) << out;
  out = run_command(base + " --shard 0/2 --json " + s0, &code);
  EXPECT_EQ(code, 0) << out;
  out = run_command(base + " --shard 1/2 --json " + s1, &code);
  EXPECT_EQ(code, 0) << out;
  out = run_command(std::string(SOFIA_ATTACK_BIN) + " --merge " + merged +
                        " " + s0 + " " + s1, &code);
  EXPECT_EQ(code, 0) << out;
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto whole_doc = slurp(whole);
  EXPECT_FALSE(whole_doc.empty());
  EXPECT_EQ(whole_doc, slurp(merged));
  EXPECT_NE(slurp(s0).find("\"shard\": \"0/2\""), std::string::npos);
  // An incomplete shard set must fail loudly.
  out = run_command(std::string(SOFIA_ATTACK_BIN) + " --merge " + merged +
                        " " + s0, &code);
  EXPECT_NE(code, 0);
  for (const auto& p : {whole, s0, s1, merged}) std::remove(p.c_str());
}

TEST_F(Tools, AttackJsonDashStreamsTheDocumentToStdout) {
  const std::string tag = std::to_string(getpid());
  const std::string json = "/tmp/sofia_attack_" + tag + "_dash.json";
  const std::string base = std::string(SOFIA_ATTACK_BIN) +
                           " --campaign --smoke --jobs 30 --quiet --threads 2";
  int code = 0;
  const auto file_out = run_command(base + " --json " + json, &code);
  ASSERT_EQ(code, 0) << file_out;
  const auto stdout_doc =
      run_command("( " + base + " --json - 2>/dev/null )", &code);
  EXPECT_EQ(code, 0);
  std::ifstream in(json, std::ios::binary);
  const std::string file_doc{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  EXPECT_EQ(stdout_doc, file_doc);
  std::remove(json.c_str());
}

TEST_F(Tools, AttackListsMutatorsAndRejectsIdleInvocation) {
  int code = 0;
  const auto catalog = run_command(
      std::string(SOFIA_ATTACK_BIN) + " --mutators", &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(catalog.find("bit-flip"), std::string::npos) << catalog;
  EXPECT_NE(catalog.find("cross-version-splice"), std::string::npos) << catalog;
  EXPECT_NE(catalog.find("fetch-fault"), std::string::npos) << catalog;
  const auto idle = run_command(std::string(SOFIA_ATTACK_BIN), &code);
  EXPECT_EQ(code, 2);
  EXPECT_NE(idle.find("nothing to do"), std::string::npos) << idle;
}

TEST_F(Tools, AttackMergeExitsOneOnAnAuthenticatedEscape) {
  // --merge returns the unsharded run's verdict: a shard in which the first
  // trial of the "sofia-cbcmac" cell is replaced by a null-cell escape
  // (moved onto that trial's index) merges into a document with an
  // authenticated escape, and exits 1 as sofia_attack would on it.
  const std::string base =
      "/tmp/sofia_attack_verdict_" + std::to_string(getpid());
  int code = 0;
  constexpr std::uint64_t kJobs = 40;
  for (const char* k : {"0", "1"}) {
    const auto out = run_command(
        std::string(SOFIA_ATTACK_BIN) +
            " --campaign --smoke --jobs 40 --quiet --threads 2 --shard " + k +
            "/2 --json " + base + "_" + k + ".json",
        &code);
    ASSERT_EQ(code, 0) << out;
  }
  const auto member = [](sofia::json::Value& v, std::string_view key) -> sofia::json::Value& {
    for (auto& [k, m] : v.object)
      if (k == key) return m;
    throw sofia::Error("test: no member '" + std::string(key) + "'");
  };
  sofia::json::Value doc = sofia::json::parse(read_file(base + "_0.json"));
  std::uint64_t mac_first_job = ~0ull;
  const auto& cells = member(doc, "cells").array;
  for (std::size_t c = 0; c < cells.size(); ++c)
    if (cells[c].at("scheme", "cell").string == "sofia-cbcmac")
      mac_first_job = c * kJobs;  // even, so shard 0/2 runs it
  ASSERT_NE(mac_first_job, ~0ull);
  auto& trials = member(doc, "trials").array;
  const auto leak = std::find_if(trials.begin(), trials.end(), [&](auto& t) {
    return member(t, "cls").string == "escaped";
  });
  ASSERT_NE(leak, trials.end()) << "the null cell of shard 0 did not leak";
  sofia::json::Value escape = *leak;
  const std::string job = std::to_string(mac_first_job);
  member(escape, "index").number = job;
  member(member(escape, "escape"), "job").number = job;
  const auto mac = std::find_if(trials.begin(), trials.end(), [&](auto& t) {
    return member(t, "index").number == job;
  });
  ASSERT_NE(mac, trials.end());
  *mac = escape;
  sofia::json::Writer w(2);
  doc.write(w);
  std::ofstream(base + "_0.json", std::ios::binary) << w.str();
  const auto out = run_command(std::string(SOFIA_ATTACK_BIN) + " --merge " +
                                   base + "_m.json " + base + "_0.json " +
                                   base + "_1.json",
                               &code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("ESCAPES in an authenticated scheme"), std::string::npos)
      << out;
  for (const char* suffix : {"_0", "_1", "_m"})
    std::remove((base + suffix + ".json").c_str());
}

TEST_F(Tools, SweepCacheWarmRunIsAllHitsAndByteIdentical) {
  // The resumability contract through the CLI: the second run against the
  // same cache executes zero jobs, and both documents match a cache-less
  // run byte for byte. Counters land on stderr, never in the document.
  const std::string tag = std::to_string(getpid());
  const std::string dir = "/tmp/sofia_cache_" + tag;
  const std::string cold = "/tmp/sofia_cache_" + tag + "_cold.json";
  const std::string warm = "/tmp/sofia_cache_" + tag + "_warm.json";
  const std::string plain = "/tmp/sofia_cache_" + tag + "_plain.json";
  const std::string base = std::string(SOFIA_SWEEP_BIN) +
                           " --smoke --quiet --threads 2";
  int code = 0;
  auto out = run_command(base + " --cache " + dir + " --json " + cold, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("0 hit(s)"), std::string::npos) << out;
  out = run_command(base + " --cache " + dir + " --json " + warm, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("0 miss(es), 0 stored"), std::string::npos) << out;
  out = run_command(base + " --json " + plain, &code);
  EXPECT_EQ(code, 0) << out;

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto plain_doc = slurp(plain);
  EXPECT_FALSE(plain_doc.empty());
  EXPECT_EQ(plain_doc, slurp(cold));
  EXPECT_EQ(plain_doc, slurp(warm));
  EXPECT_EQ(plain_doc.find("\"cache\""), std::string::npos)
      << "the cache must never leak into the sweep document";

  std::filesystem::remove_all(dir);
  for (const auto& p : {cold, warm, plain}) std::remove(p.c_str());
}

TEST_F(Tools, SweepReportsOneVanillaRunPerBaselineGroup) {
  // The scheme matrix's 8 scheme x cipher cells of one workload share a
  // vanilla baseline: a cold smoke run executes one per workload, and a
  // warm rerun against the same cache executes none.
  const std::string tag = std::to_string(getpid());
  const std::string dir = "/tmp/sofia_baselines_" + tag;
  const std::string base = std::string(SOFIA_SWEEP_BIN) +
                           " --matrix scheme --smoke --quiet --threads 4"
                           " --cache " + dir;
  int code = 0;
  auto out = run_command(base, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("; 3 vanilla run(s) for 24 job(s)"), std::string::npos)
      << out;
  out = run_command(base, &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("0 miss(es), 0 stored"), std::string::npos) << out;
  EXPECT_NE(out.find("; 0 vanilla run(s) for 24 job(s)"), std::string::npos)
      << out;
  std::filesystem::remove_all(dir);
}

TEST_F(Tools, SweepCacheEnvFallbackAndStatsSideDocument) {
  const std::string tag = std::to_string(getpid());
  const std::string dir = "/tmp/sofia_cache_env_" + tag;
  int code = 0;
  // No --cache flag: $SOFIA_CACHE must be picked up.
  auto out = run_command("SOFIA_CACHE=" + dir + " " +
                             std::string(SOFIA_SWEEP_BIN) +
                             " --smoke --quiet --threads 2", &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("cache: " + dir), std::string::npos) << out;

  // --cache-stats emits the side document; it requires a cache.
  const std::string stats = "/tmp/sofia_cache_env_" + tag + "_stats.json";
  out = run_command(std::string(SOFIA_SWEEP_BIN) +
                        " --smoke --quiet --threads 2 --cache " + dir +
                        " --cache-stats " + stats, &code);
  EXPECT_EQ(code, 0) << out;
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto doc = slurp(stats);
  EXPECT_NE(doc.find("\"schema\": \"sofia-cache-stats-v1\""),
            std::string::npos) << doc;
  EXPECT_NE(doc.find("\"misses\": 0"), std::string::npos) << doc;
  out = run_command("env -u SOFIA_CACHE " + std::string(SOFIA_SWEEP_BIN) +
                        " --smoke --quiet --cache-stats " + stats, &code);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find("--cache-stats needs --cache"), std::string::npos) << out;

  std::filesystem::remove_all(dir);
  std::remove(stats.c_str());
}

TEST_F(Tools, CacheStatsWithoutACacheFailsBeforeAnythingRuns) {
  // Both producer tools reject --cache-stats without a cache up front: no
  // job runs, and no result document is written.
  const std::string tag = std::to_string(getpid());
  const std::string stats = "/tmp/sofia_nocache_" + tag + "_stats.json";
  const std::string doc = "/tmp/sofia_nocache_" + tag + ".json";
  for (const std::string& tool :
       {std::string(SOFIA_SWEEP_BIN) + " --smoke",
        std::string(SOFIA_ATTACK_BIN) + " --campaign --smoke --jobs 2"}) {
    int code = 0;
    const auto out = run_command("env -u SOFIA_CACHE " + tool +
                                     " --cache-stats " + stats + " --json " +
                                     doc, &code);
    EXPECT_EQ(code, 2) << out;
    EXPECT_NE(out.find("--cache-stats needs --cache"), std::string::npos)
        << out;
    EXPECT_EQ(out.find("done in"), std::string::npos) << out;
    EXPECT_FALSE(std::filesystem::exists(doc)) << tool;
    EXPECT_FALSE(std::filesystem::exists(stats)) << tool;
  }
}

TEST_F(Tools, CacheCliStatsVerifyAndGc) {
  const std::string tag = std::to_string(getpid());
  const std::string dir = "/tmp/sofia_cache_cli_" + tag;
  int code = 0;
  auto out = run_command(std::string(SOFIA_SWEEP_BIN) +
                             " --smoke --quiet --threads 2 --cache " + dir,
                         &code);
  ASSERT_EQ(code, 0) << out;

  out = run_command(std::string(SOFIA_CACHE_BIN) + " stats --cache " + dir,
                    &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("sweep-job"), std::string::npos) << out;
  out = run_command("( " + std::string(SOFIA_CACHE_BIN) + " stats --cache " +
                        dir + " --json - )", &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("\"schema\": \"sofia-cache-stats-v1\""),
            std::string::npos) << out;

  out = run_command(std::string(SOFIA_CACHE_BIN) + " verify --cache " + dir,
                    &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("0 bad"), std::string::npos) << out;

  // Garble one entry: verify must name it and exit 1.
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::fstream f(e.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('!');
    break;
  }
  out = run_command(std::string(SOFIA_CACHE_BIN) + " verify --cache " + dir,
                    &code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("BAD"), std::string::npos) << out;

  // gc to zero bytes evicts everything.
  out = run_command(std::string(SOFIA_CACHE_BIN) + " gc --cache " + dir +
                        " --max-bytes 0", &code);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("kept 0"), std::string::npos) << out;

  // Usage errors: gc without --max-bytes, and no cache directory at all.
  out = run_command(std::string(SOFIA_CACHE_BIN) + " gc --cache " + dir,
                    &code);
  EXPECT_EQ(code, 2) << out;
  out = run_command("env -u SOFIA_CACHE " + std::string(SOFIA_CACHE_BIN) +
                        " stats", &code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("no cache directory"), std::string::npos) << out;

  std::filesystem::remove_all(dir);
}

TEST_F(Tools, FleetSharesOneCacheAcrossWorkers) {
  const std::string tag = std::to_string(getpid());
  const std::string dir = "/tmp/sofia_fleet_cache_" + tag;
  const std::string first = "/tmp/sofia_fleet_cache_" + tag + "_1.json";
  const std::string second = "/tmp/sofia_fleet_cache_" + tag + "_2.json";
  int code = 0;
  auto out = run_command(std::string(SOFIA_FLEET_BIN) +
                             " --smoke --workers 2 --threads 1 --cache " + dir +
                             " --quiet --json " + first, &code);
  EXPECT_EQ(code, 0) << out;
  // A different worker split against the same cache: all hits, same bytes.
  out = run_command(std::string(SOFIA_FLEET_BIN) +
                        " --smoke --workers 3 --threads 1 --cache " + dir +
                        " --quiet --json " + second, &code);
  EXPECT_EQ(code, 0) << out;
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto doc = slurp(first);
  EXPECT_FALSE(doc.empty());
  EXPECT_EQ(doc, slurp(second));
  std::filesystem::remove_all(dir);
  for (const auto& p : {first, second}) std::remove(p.c_str());
}

TEST_F(Tools, SweepListsMatricesAndRejectsUnknown) {
  int code = 0;
  const auto list = run_command(std::string(SOFIA_SWEEP_BIN) + " --list", &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(list.find("suite-overhead"), std::string::npos) << list;
  EXPECT_NE(list.find("granularity"), std::string::npos) << list;
  run_command(std::string(SOFIA_SWEEP_BIN) + " --matrix nope --smoke", &code);
  EXPECT_NE(code, 0);
  const auto bad = run_command(std::string(SOFIA_SWEEP_BIN) + " --frobnicate",
                               &code);
  EXPECT_EQ(code, 2);
  EXPECT_NE(bad.find("usage"), std::string::npos) << bad;
}

}  // namespace
