// Pluggable execution backends. A Backend is one way of running a
// LoadImage under a SimConfig; every backend enforces the *same*
// architectural contract — the ISA semantics and the SOFIA integrity
// rules (decrypt with control-flow-dependent counters, verify the block
// CBC-MAC, reset on any violation) — but backends differ in what their
// numbers mean:
//
//  * "cycle"      — the paper-faithful cycle-accurate simulator (7-stage
//                   core, I-cache, shared cipher engine, store gate).
//                   stats.cycles models device time.
//  * "functional" — an architectural interpreter: same integrity
//                   semantics, no micro-architectural timing. Several
//                   times faster; stats.cycles counts retired
//                   instructions. For sweep prefiltering and integrity
//                   testing, never for overhead numbers.
//
// Work is distributed a level up, never per run: sofia_fleet hands whole
// --shard K/N slices of a sweep or campaign to worker processes and merges
// their documents.
//
// Consumers never construct a simulator directly: they name a backend
// (DeviceProfile::backend routes pipeline::Pipeline here) and the
// registry hands back the implementation, so an alternative backend
// is a drop-in.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "assembler/image.hpp"
#include "sim/config.hpp"

namespace sofia::sim {

/// What a backend's RunResult numbers mean. Both flags are advertised so
/// report generators can refuse to print timing columns for a backend
/// that never modelled them.
struct BackendCapabilities {
  /// stats.cycles models device time. When false, cycles is the retired
  /// instruction count and any cycle-derived overhead is meaningless.
  bool cycle_accurate = false;
  /// The I-cache / fetch-queue / cipher-engine counters are modelled.
  bool models_microarchitecture = false;
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Registry key, e.g. "cycle".
  virtual std::string_view name() const = 0;

  /// One-line human description for --help texts and reports.
  virtual std::string_view describe() const = 0;

  virtual BackendCapabilities capabilities() const = 0;

  /// Execute an image to completion. The architectural outcome (status,
  /// exit code, console output, reset-on-tamper) must agree across all
  /// backends for any image whose integrity violations — if any — lie on
  /// the architecturally executed path; only timing fidelity may differ.
  /// Two documented corners where micro-architecture shows through:
  ///  * the cycle machine speculatively fetches fall-through blocks, so
  ///    it additionally resets on tampering in a block that architectural
  ///    control flow never enters (a strictly earlier detection);
  ///  * SimConfig::fault.fetch_index counts each backend's own fetch
  ///    stream, which includes those speculative fetches on "cycle" only
  ///    — pick indices inside the entry block for backend-portable
  ///    campaigns.
  /// run() builds a fresh machine per call and is safe to invoke
  /// concurrently. The only state a backend keeps across runs is the cycle
  /// and functional backends' BlockStore (sim/admission.hpp), which never
  /// changes a result.
  virtual RunResult run(const assembler::LoadImage& image,
                        const SimConfig& config) const = 0;
};

/// One registry row: key + factory.
struct BackendEntry {
  std::string_view name;
  std::unique_ptr<Backend> (*make)();
};

/// The default backend every DeviceProfile starts with.
inline constexpr std::string_view kDefaultBackend = "cycle";

/// Built-in backends in a stable order ("cycle" first).
const std::vector<BackendEntry>& backend_registry();

/// The registered names, in registry order.
std::vector<std::string> backend_names();

/// Is `name` a registered backend key?
bool is_backend(std::string_view name);

/// Construct a backend by registry key; throws sofia::Error listing the
/// registered names for anything unknown.
std::unique_ptr<Backend> make_backend(std::string_view name);

}  // namespace sofia::sim
