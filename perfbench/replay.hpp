// Single-threaded replays of sweep jobs and campaign trials through the
// library's public stage calls, one span per call. The replay mirrors
// driver::run_sweep's job body and campaign::run_campaign's trial body from
// the outside; its outcomes are compared against the library's own run of
// the same spec (the replay-fidelity gate), so the per-layer numbers are
// only reported as valid when the replay did the same work.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/result_store.hpp"
#include "campaign/campaign.hpp"
#include "driver/sweep.hpp"
#include "pipeline/pipeline.hpp"
#include "trace.hpp"

namespace perfbench {

/// The campaign engine's built-in victim program (a copy: the library keeps
/// it private). The fidelity gate catches any drift, because the fixture
/// digest covers the victim's sealed image.
extern const char kBuiltinVictim[];

/// Result of replaying a job list or a campaign.
struct ReplayResult {
  double wall_s = 0;
  bool faithful = true;
  std::string mismatch;  ///< first difference from the library's run
  /// Sessions kept for the probe phase (transform products stay cached).
  std::vector<std::unique_ptr<sofia::pipeline::Pipeline>> sessions;
  sofia::cache::Stats cache;  ///< the replay store's counters
  std::uint64_t errors = 0;   ///< failed jobs or error-status trials
};

/// Replay sweep jobs in index order; `store` may be null (no cache).
/// `reference` is the library's result for the same jobs.
ReplayResult replay_sweep(const std::vector<sofia::driver::JobSpec>& jobs,
                          sofia::cache::ResultStore* store,
                          const sofia::driver::SweepResult& reference,
                          Tracer& tracer);

/// Replay every trial of `spec`. The library's reference run must have
/// used `reference_store`, whose per-trial entries give the expected
/// class, cause, instruction count and minimized counterexample.
ReplayResult replay_campaign(const sofia::campaign::CampaignSpec& spec,
                             const sofia::campaign::CampaignResult& reference,
                             sofia::cache::ResultStore& reference_store,
                             Tracer& tracer);

/// Per-call probes outside the job spans: cipher block costs, scheme
/// open/seal over every sealed block, CFG construction and dataflow
/// analysis over every session's program.
void run_probes(const std::vector<std::unique_ptr<sofia::pipeline::Pipeline>>& sessions,
                Tracer& tracer);

/// The per-layer metrics derived from the traced spans.
std::map<std::string, double> layer_metrics(const std::vector<SpanRecord>& spans,
                                            const sofia::cache::Stats& cache);

}  // namespace perfbench
