// Simulator configuration and result types.
//
// The simulator models a LEON3-class 7-stage in-order single-issue pipeline
// (IF ID OF EXE MA XCP WB) at cycle granularity with the SOFIA front end of
// the paper: an instruction cache, a fetch queue decoupling IF from the
// execute stages, a shared 2-cycle pipelined cipher engine that alternates
// CTR (instruction decryption) and CBC (MAC) operations, run-time MAC
// verification per block, and the store gate that keeps store-class
// instructions out of the MA stage until their block verifies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/ctr.hpp"
#include "crypto/key_set.hpp"
#include "xform/block_policy.hpp"

namespace sofia::sim {

/// Why the SOFIA logic pulled the reset line (architectural detections).
enum class ResetCause : std::uint8_t {
  kNone = 0,
  kMacMismatch,         ///< run-time MAC != stored MAC (tampering / bad CF)
  kInvalidEntry,        ///< transfer into a block at word offset >= 3
  kRestrictedStore,     ///< store decoded in a restricted slot (Fig. 6)
  kIllegalExit,         ///< control instruction decoded off the exit slot
  kIllegalInstruction,  ///< undecodable word reached decode
  kStateCorruption,     ///< chained-state scheme tag mismatch ("sponge")
  kTargetSetViolation,  ///< indirect transfer outside the sealed target set ("flta")
};

std::string_view to_string(ResetCause cause);

struct ResetEvent {
  ResetCause cause = ResetCause::kNone;
  std::uint64_t cycle = 0;
  std::uint32_t pc = 0;  ///< byte address of the offending word/block entry
};

/// Timing of the shared block-cipher engine (paper §III: RECTANGLE-80
/// unrolled into a 2-cycle operation; a single instance alternates between
/// CTR and CBC work every other cycle). The paper's wording admits two
/// hardware readings, both modelled:
///  * pipelined — an op can start every cycle (stage registers between the
///    round groups); alternation gives each class one slot per 2 cycles;
///  * iterative — the instance is busy for the whole `latency`, so one op
///    finishes per `latency` cycles regardless of class.
/// `sofia_sweep --matrix adpcm` reports which reading lands nearer the
/// paper's 13.7%.
struct CipherTiming {
  std::uint32_t latency = 2;  ///< cycles from issue to result
  bool alternate = true;      ///< strict CTR-even / CBC-odd slot alternation
  bool pipelined = true;      ///< accept one op per cycle (vs every latency)
};

struct CacheConfig {
  std::uint32_t size_bytes = 4096;
  std::uint32_t line_bytes = 32;
  std::uint32_t miss_penalty = 12;  ///< cycles to refill a line
};

/// Transient-fault injection on the instruction-fetch path (the paper's
/// stated future work: "test the architecture's resistance to fault-based
/// attacks"). Flips one bit of the raw word delivered by the N-th fetch of
/// the run — a model of a voltage/clock glitch on the bus or cache read.
struct FaultInjection {
  bool enabled = false;
  std::uint64_t fetch_index = 0;  ///< 0-based index of the word fetch to hit
  unsigned bit = 0;               ///< bit to flip (0..31)
};

struct SimConfig {
  // Front end.
  std::uint32_t fetch_queue = 6;     ///< decoupling queue entries
  std::uint32_t redirect_bubble = 2; ///< pipeline refill after taken control
  /// I-cache read width of the SOFIA front end in words. The paper's
  /// datapath moves 64-bit blocks into the cipher, i.e. 2 words/cycle; the
  /// vanilla core always fetches 1 word/cycle.
  std::uint32_t fetch_words_per_cycle = 2;
  CacheConfig icache;
  // Execute side.
  std::uint32_t load_latency = 2;  ///< cycles until a load's result is usable
  std::uint32_t mul_latency = 3;
  // SOFIA device state (ignored for vanilla images; see vanilla_view).
  crypto::KeySet keys;
  /// Protection scheme the device implements — a scheme::scheme_registry()
  /// key. The literal default mirrors scheme::kDefaultScheme (this header
  /// cannot include scheme/scheme.hpp without a layering cycle; test_scheme
  /// asserts the two stay equal).
  std::string scheme = "sofia-cbcmac";
  xform::BlockPolicy policy = xform::BlockPolicy::paper_default();
  CipherTiming cipher;
  /// Pipeline distance between our execute point (ID/OF) and the MA stage:
  /// a store may enter the pipe this many cycles before its block's
  /// verification completes and still be gated correctly (paper Fig. 5/6).
  std::uint32_t store_gate_headstart = 3;
  FaultInjection fault;
  // Harness.
  std::uint64_t max_cycles = 2'000'000'000ull;
  /// Record a per-instruction execution trace in RunResult::trace (costly;
  /// for debugging and tests).
  bool collect_trace = false;
  std::size_t max_trace = 100'000;
};

/// The part of `config` a vanilla (plaintext) image can observe: the SOFIA
/// device state and the SOFIA-only front-end knobs reset to their defaults.
/// Neither the cycle machine's vanilla fetch path nor the functional
/// interpreter's vanilla loop reads a reset field, so two configs with
/// equal views give every vanilla image the same RunResult — which lets a
/// sweep run one vanilla baseline for a whole group of cells.
inline SimConfig vanilla_view(SimConfig config) {
  const SimConfig defaults;
  config.keys = defaults.keys;
  config.scheme = defaults.scheme;
  config.policy = defaults.policy;
  config.cipher = defaults.cipher;
  config.store_gate_headstart = defaults.store_gate_headstart;
  config.fetch_words_per_cycle = defaults.fetch_words_per_cycle;
  return config;
}

struct SimStats {
  std::uint64_t cycles = 0;
  std::uint64_t insts = 0;        ///< instructions executed (including NOPs)
  std::uint64_t nops = 0;         ///< NOPs among them (SOFIA padding shows here)
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t taken = 0;
  std::uint64_t icache_hits = 0;
  std::uint64_t icache_misses = 0;
  std::uint64_t fetch_words = 0;      ///< words delivered by the front end
  std::uint64_t mac_words = 0;        ///< MAC words consumed (SOFIA)
  std::uint64_t ctr_ops = 0;
  std::uint64_t cbc_ops = 0;
  std::uint64_t blocks_fetched = 0;
  std::uint64_t mac_verifications = 0;
  std::uint64_t store_gate_stalls = 0;  ///< cycles stores waited on the gate
  std::uint64_t queue_empty_cycles = 0; ///< execute side starved
  std::uint64_t exec_stall_cycles = 0;  ///< execute side busy (hazards)

  friend bool operator==(const SimStats&, const SimStats&) = default;
};

/// One executed instruction (only collected when SimConfig::collect_trace).
struct TraceEntry {
  std::uint64_t cycle = 0;  ///< cycle the instruction issued
  std::uint32_t pc = 0;
  std::uint32_t word = 0;  ///< encoded instruction
};

struct RunResult {
  enum class Status : std::uint8_t {
    kHalted,     ///< executed HALT
    kExited,     ///< wrote the MMIO exit register
    kReset,      ///< SOFIA pulled the reset line (see reset)
    kFault,      ///< simulator-level error (misaligned access, bad fetch)
    kMaxCycles,  ///< ran out of the configured cycle budget
  };
  Status status = Status::kHalted;
  int exit_code = 0;
  ResetEvent reset;
  std::string fault;   ///< message for kFault
  std::string output;  ///< console MMIO text
  SimStats stats;
  std::vector<TraceEntry> trace;  ///< see SimConfig::collect_trace

  bool ok() const { return status == Status::kHalted || status == Status::kExited; }
};

/// Render a trace as "cycle pc disassembly" lines.
std::string format_trace(const std::vector<TraceEntry>& trace);

std::string_view to_string(RunResult::Status status);

// Memory-mapped I/O (word stores).
inline constexpr std::uint32_t kMmioConsole = 0xFFFF0000u;  ///< low byte -> console
inline constexpr std::uint32_t kMmioExit = 0xFFFF0004u;     ///< exit(code)
inline constexpr std::uint32_t kMmioPutInt = 0xFFFF0008u;   ///< print int + '\n'

}  // namespace sofia::sim
