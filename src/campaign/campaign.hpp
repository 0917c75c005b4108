// Mutation-based adversarial campaign engine — the dynamic complement of
// the static verifier in src/verify/. A Target is one victim sealed once
// and attacked through replayable MutationRecords (campaign/mutation.hpp);
// the attack benches, the ROP/JOP demos and the tests mount hand-picked
// attacks on it, on the sealed image and on its vanilla twin. A campaign
// generates large seeded populations of tampered images, forged headers,
// spliced blocks and fault schedules, executes them per matrix cell
// (scheme × cipher × granularity) as a plug-in of the shared job engine
// (driver/jobs.hpp: shard slice, indexed thread pool, cache-through
// policy), and measures the defense: detection rate,
// detection latency (retired instructions until reset), verdict
// distribution, and — for any trial that escapes detection — a greedily
// minimized, replayable counterexample plus a verify::lint attribution of
// what the static layer would have caught.
//
// Determinism contract (the sweep driver's, extended): per-job mutation
// streams are Rng::fork(job index) substreams of the campaign seed, job
// records land in index-owned slots, and to_json() excludes wall-clock —
// so the sofia-attack-campaign-v1 document is byte-identical for any
// --threads and any --shard K/N + merge split.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/result_store.hpp"
#include "campaign/mutation.hpp"
#include "crypto/key_set.hpp"
#include "driver/jobs.hpp"
#include "pipeline/pipeline.hpp"
#include "support/json.hpp"
#include "verify/verify.hpp"

namespace sofia::campaign {

/// One matrix cell: the protection scheme under attack and the cipher /
/// CTR-granularity axes it runs with.
struct CellSpec {
  std::string scheme;
  crypto::CipherKind cipher = crypto::CipherKind::kRectangle80;
  crypto::Granularity granularity = crypto::Granularity::kPerPair;

  /// "sofia-cbcmac/RECTANGLE-80/per-pair" — progress lines and errors.
  std::string label() const;

  bool operator==(const CellSpec&) const = default;
};

/// The default version nonce of the donor build cross-version splices
/// graft from.
inline constexpr std::uint16_t kDonorOmega = 0xD00D;

struct CampaignSpec {
  std::string name = "full";
  /// Victim program: empty = the built-in attack victim, otherwise a
  /// workloads registry name (generated with `seed` and `size`).
  std::string workload;
  std::uint32_t size = 0;  ///< workload size; 0 = the registry default
  std::vector<CellSpec> cells;
  std::uint32_t jobs_per_cell = 1000;
  std::uint64_t seed = 1;
  /// Execution backend for every trial (sim::backend_registry() key); the
  /// functional backend is the fleet-scale default.
  std::string backend = "functional";
  /// Version nonce of the donor build cross-version splices graft from.
  std::uint16_t donor_omega = kDonorOmega;

  std::uint64_t total_jobs() const {
    return static_cast<std::uint64_t>(cells.size()) * jobs_per_cell;
  }

  bool operator==(const CampaignSpec&) const = default;
};

/// The full matrix: every registered scheme × both ciphers × both CTR
/// granularities, built-in victim.
CampaignSpec default_campaign();

/// Shrink to a seconds-long run: one cell per registered scheme (paper
/// cipher, per-pair granularity); jobs_per_cell is left to the caller.
CampaignSpec smoke(CampaignSpec spec);

// ---- the victim under attack -----------------------------------------------

/// Tampered runs can loop on garbage; every attacked run gets this budget.
inline constexpr std::uint64_t kTrialBudget = 10'000'000;

/// The §IV-A-2 code-reuse victims. Each keeps the code pointer its attacker
/// overwrites in its first data word, and a "gadget" label that must never
/// run: the ROP demo smashes a return address, the JOP demo a dispatch
/// table entry. Both attacks are one retarget-indirect record
/// {data offset 0, Target::aim("gadget")} (aim_vanilla on the vanilla twin).
extern const char kRopVictim[];
extern const char kJopVictim[];

/// One victim sealed once and attacked many times: the §IV-A experiment's
/// fixture. Construction seals the victim under the profile, runs it clean
/// (throwing sofia::Error if that run fails), links its vanilla twin and
/// seals the donor build that cross-version splices graft from. Every
/// attacked run copies the sealed image (or the twin) and the trial config,
/// applies a MutationRecord and executes under kTrialBudget; outcomes go
/// through classify(). All access after construction is const, so trials
/// may run concurrently.
class Target {
 public:
  /// An SR32 source victim; the donor is the same source sealed under
  /// `donor_omega`.
  Target(const std::string& source, const pipeline::DeviceProfile& profile,
         std::uint16_t donor_omega = kDonorOmega);

  /// The victim a campaign attacks in `cell`: the built-in victim or the
  /// spec's workload (seed, size), under the cell's device profile, with
  /// the spec's donor omega.
  Target(const CampaignSpec& spec, const CellSpec& cell);

  const sim::RunResult& clean_run() const { return clean_; }
  const ImageGeometry& geometry() const { return geometry_; }

  /// Apply `record` to fresh copies of the sealed image and the trial
  /// config and run the result.
  sim::RunResult execute(const MutationRecord& record) const;

  /// The same on the vanilla twin: the victim linked sequentially in
  /// plaintext, as the unprotected core runs it. The empty record is its
  /// clean run. Cross-version splices have no donor here and throw.
  sim::RunResult execute_vanilla(const MutationRecord& record) const;

  /// The address an attacker who knows the layout (Kerckhoffs: everything
  /// but the keys) aims a code pointer at to reach text label `label`: the
  /// base of the label's block in the sealed image. aim_vanilla() is the
  /// label's linked address in the vanilla twin. Unknown labels throw.
  std::uint32_t aim(const std::string& label) const;
  std::uint32_t aim_vanilla(const std::string& label) const;

  // The sealed attack surface, for the campaign's cache key and its
  // static-layer attribution.
  const pipeline::Pipeline& session() const { return *session_; }
  const assembler::LoadImage& image() const { return image_; }
  const assembler::LoadImage& donor() const { return donor_; }
  /// The verifier's reference for the victim (also the source of the
  /// geometry's indirect-target sets).
  const verify::ProgramModel& model() const { return model_; }
  /// The image execute() runs for `record`: a copy of the sealed image
  /// with the record applied. Fault schedules land in `config`.
  assembler::LoadImage tampered(const MutationRecord& record,
                                sim::SimConfig& config) const;

 private:
  using SessionFactory = std::function<pipeline::Pipeline(
      const pipeline::DeviceProfile&, const std::string& name)>;
  Target(const SessionFactory& make, const pipeline::DeviceProfile& profile,
         std::uint16_t donor_omega, const std::string& label);

  std::unique_ptr<pipeline::Pipeline> session_;
  assembler::LoadImage image_;
  assembler::LoadImage vanilla_;
  sim::RunResult clean_;
  verify::ProgramModel model_;
  assembler::LoadImage donor_;
  ImageGeometry geometry_;
};

// ---- trial classification --------------------------------------------------

enum class TrialClass : std::uint8_t {
  kDetected,  ///< the device pulled the reset line
  kHarmless,  ///< run completed with output identical to the clean run
  kEscaped,   ///< anything else: tampering visibly altered the execution
};

std::string_view to_string(TrialClass cls);

/// The paper's criterion, applied per trial: a reset is a detection; a
/// completed run with clean output means the mutation was never fetched
/// (dead code / over-long fault schedule); everything else — wrong output,
/// a simulator fault, a blown cycle budget — escaped the defense.
TrialClass classify(const sim::RunResult& run, const std::string& clean_output);

/// Greedy mutation-subset reduction: drop each mutation in turn, keeping
/// the removal whenever `trial` still reports kEscaped, and return the
/// (locally) minimal record. `trial` is called with candidate records only;
/// a single-mutation record returns unchanged without calling it.
MutationRecord minimize(
    const MutationRecord& record,
    const std::function<TrialClass(const MutationRecord&)>& trial);

// ---- results ---------------------------------------------------------------

/// Mirrors sim::ResetCause (kNone..kTargetSetViolation) for the per-cell
/// verdict tallies; test_campaign pins the two in sync.
inline constexpr std::size_t kResetCauseCount = 8;

/// One surviving counterexample: everything needed to replay and triage it.
struct EscapeRecord {
  std::uint64_t job = 0;  ///< global job index (replay: fork(seed, job))
  std::string status;     ///< run status name ("halted", "max-cycles", ...)
  bool output_clean = false;
  MutationRecord applied;    ///< the full generated record
  MutationRecord minimized;  ///< greedy subset still escaping
  /// Error rules verify::lint fires on the tampered image — what the
  /// static layer would have caught (empty for pure fault schedules).
  std::vector<verify::Rule> lint;
};

/// One trial's outcome: what the job body produces, the result cache
/// stores and a shard document carries, and what the fold tallies.
struct Trial {
  std::uint64_t job = 0;  ///< global job index (the payload's key, not in it)
  TrialClass cls = TrialClass::kHarmless;
  sim::ResetCause cause = sim::ResetCause::kNone;  ///< kNone unless detected
  std::uint64_t insts = 0;  ///< retired instructions (the latency if detected)
  MutationRecord record;
  EscapeRecord escape;      ///< valid when cls == kEscaped; escape.job == job
  bool from_cache = false;  ///< served without executing (not in the JSON)
};

struct CellResult {
  CellSpec cell;
  bool authenticated = false;
  std::uint64_t jobs = 0;  ///< trials executed (this shard's slice)
  std::uint64_t detected = 0;
  std::uint64_t harmless = 0;
  std::uint64_t escaped = 0;
  /// Reset-cause tally over detected trials, indexed by sim::ResetCause.
  std::array<std::uint64_t, kResetCauseCount> causes{};
  /// Applied-mutation tally, indexed by MutationKind.
  std::array<std::uint64_t, kMutationKindCount> mutations{};
  /// Detection latency in retired instructions until the reset, over
  /// detected trials (identical across cycle/functional backends).
  std::uint64_t latency_min = 0;
  std::uint64_t latency_max = 0;
  std::uint64_t latency_total = 0;
  std::vector<EscapeRecord> escapes;  ///< sorted by job index

  /// detected / (detected + escaped); 1.0 when no trial tampered
  /// effectively (harmless-only cells defend vacuously).
  double detection_rate() const;
};

struct CampaignResult {
  CampaignSpec spec;
  driver::ShardSpec shard;         ///< which slice the tallies cover
  std::vector<CellResult> cells;   ///< one per spec cell, in spec order
  /// A sharded run's trials in job-index order: what its document carries
  /// for merge_json to refold. Empty for an unsharded run.
  std::vector<Trial> trials;
  double wall_seconds = 0;         ///< measured, NOT part of the JSON
  unsigned threads_used = 1;       ///< ditto
  /// Trials served from the result cache (0 without one; NOT in the JSON —
  /// cached and fresh runs must render byte-identically).
  std::uint64_t cached_trials = 0;

  std::uint64_t jobs_run() const;
  /// No escapes in any authenticated cell (the exit-code gate; the "null"
  /// baseline is expected to leak and never gates).
  bool authenticated_clean() const;
};

/// Called after each cell's tallies are folded (in cell order).
using CellProgressFn = std::function<void(const CellResult&)>;

/// Execute the campaign's (sharded) job list on `threads` workers. Builds
/// one fixture per referenced cell (victim transformed once, donor build
/// for cross-version splices, clean-run baseline), runs every trial, and
/// folds results in job-index order. Throws sofia::Error for unusable
/// specs (no cells, zero jobs, unknown scheme/backend/workload, a victim
/// whose clean run fails); per-trial outcomes are data, never errors.
///
/// With a non-null `store`, every trial's outcome is looked up by a digest
/// over the cell's attack surface (profile fingerprint, base + donor image
/// bytes, canonical SimConfig encoding, campaign seed) and the global job
/// index before executing — a killed campaign re-run against the same
/// cache resumes from disk and converges to the same bytes.
CampaignResult run_campaign(const CampaignSpec& spec, unsigned threads,
                            const CellProgressFn& progress = {},
                            driver::ShardSpec shard = {},
                            cache::ResultStore* store = nullptr);

/// Render as a deterministic sofia-attack-campaign-v1 document. An
/// unsharded result renders each cell's tallies, latencies and escapes; a
/// sharded one renders only each cell's identity and, in place of the
/// tallies, a "trials" array: one record per trial of the slice, in index
/// order, with its "index" and the members the result cache stores.
std::string to_json(const CampaignResult& result);

/// Merge shard documents back into the canonical unsharded document —
/// byte-identical to a single-machine run. Inputs must agree on every
/// header field (each in its field's range) with job_count = cells ×
/// jobs_per_cell, and their "trials" records together must hold every
/// index in [0, job_count) exactly once (driver::collect_records). Each
/// record decodes like a cache entry: a known class and cause, a reset
/// cause exactly when detected, no more instructions than kTrialBudget,
/// and an escape naming its own index. The trials are then folded as
/// run_campaign folds them. Throws sofia::Error otherwise.
std::string merge_json(const std::vector<std::string>& documents);

/// sofia_attack's verdict on a whole campaign document (a run's or a
/// merge's): print whether the authenticated cells are clean to `out` and
/// return the tool's exit code, 1 when an authenticated cell has escapes
/// (the "null" baseline is expected to leak and never gates), else 0. A
/// cell is authenticated when its scheme is (the registry decides, not the
/// document's flag).
int verdict(const json::Value& document, std::FILE* out);

}  // namespace sofia::campaign
