#include "campaign/campaign.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "assembler/image_io.hpp"
#include "assembler/link.hpp"
#include "driver/jobs.hpp"
#include "pipeline/pipeline.hpp"
#include "remote/codec.hpp"
#include "scheme/scheme.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "workloads/workloads.hpp"

namespace sofia::campaign {

namespace {

// The built-in victim: a loop of calls (mux-entry blocks), a jump-form
// function-pointer dispatch (devirtualized under non-gating schemes, a
// live gated jalr — and retarget surface — under flta), and observable
// stores: enough block variety that every mutator kind lands on live
// structure.
constexpr char kBuiltinVictim[] = R"(
main:
  li r1, 0
  li r2, 12
loop:
  call work
  addi r2, r2, -1
  bnez r2, loop
  la r4, table
  lw r5, 0(r4)
  .targets inc, dec
  jr r5
join:
  la r3, out
  sw r1, 0(r3)
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
work:
  addi r1, r1, 3
  beqz r1, never
  addi r1, r1, 1
never:
  ret
inc:
  addi r1, r1, 1
  j join
dec:
  addi r1, r1, -1
  j join
.data
table: .word inc, dec
out: .word 0
)";

}  // namespace

// The ROP victim: `vuln` loads a return address from attacker-controlled
// input (modelling a stack smash) and returns through it. The gadget holds
// the store that must never execute. attacker_input == 0 means benign input.
const char kRopVictim[] = R"(
main:
  call vuln
  li r10, 0xFFFF0008
  li r1, 1111
  sw r1, 0(r10)
  halt
vuln:
  la r2, attacker_input
  lw r3, 0(r2)
  beqz r3, benign
  mv lr, r3          ; smashed return address
benign:
  ret
gadget:              ; the "disable the brakes" store (paper §II-B-2)
  li r10, 0xFFFF0008
  li r1, 6666
  sw r1, 0(r10)
  halt
.data
attacker_input: .word 0
)";

// The JOP victim: handler pointers live in writable data; the dispatch is
// annotated with the two legitimate handlers only.
const char kJopVictim[] = R"(
main:
  la r2, table
  lw r4, 0(r2)        ; select handler 0
  li r1, 5
  .targets inc, dec
  jalr lr, r4
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
inc:
  addi r1, r1, 1
  ret
dec:
  addi r1, r1, -1
  ret
gadget:
  li r10, 0xFFFF0008
  li r1, 7777
  sw r1, 0(r10)
  halt
.data
table: .word inc, dec
)";

std::string CellSpec::label() const {
  std::string out = scheme;
  out += '/';
  out += crypto::to_string(cipher);
  out += '/';
  out += crypto::to_string(granularity);
  return out;
}

CampaignSpec default_campaign() {
  CampaignSpec spec;
  for (const auto& entry : scheme::scheme_registry()) {
    const bool uses_gran = entry.traits().uses_granularity;
    for (const auto cipher :
         {crypto::CipherKind::kRectangle80, crypto::CipherKind::kSpeck64_128}) {
      for (const auto gran :
           {crypto::Granularity::kPerPair, crypto::Granularity::kPerWord}) {
        // A scheme that ignores the granularity axis seals identical bytes
        // for both values — one cell covers it.
        if (gran == crypto::Granularity::kPerWord && !uses_gran) continue;
        spec.cells.push_back(
            CellSpec{std::string(entry.name()), cipher, gran});
      }
    }
  }
  return spec;
}

CampaignSpec smoke(CampaignSpec spec) {
  spec.name += "-smoke";
  std::vector<CellSpec> kept;
  for (const auto& cell : spec.cells) {
    const bool seen = std::any_of(
        kept.begin(), kept.end(),
        [&](const CellSpec& k) { return k.scheme == cell.scheme; });
    if (!seen) kept.push_back(cell);
  }
  spec.cells = std::move(kept);
  return spec;
}

std::string_view to_string(TrialClass cls) {
  switch (cls) {
    case TrialClass::kDetected: return "detected";
    case TrialClass::kHarmless: return "harmless";
    case TrialClass::kEscaped: return "escaped";
  }
  return "?";
}

TrialClass classify(const sim::RunResult& run,
                    const std::string& clean_output) {
  if (run.status == sim::RunResult::Status::kReset) return TrialClass::kDetected;
  if (run.ok() && run.output == clean_output) return TrialClass::kHarmless;
  return TrialClass::kEscaped;
}

MutationRecord minimize(
    const MutationRecord& record,
    const std::function<TrialClass(const MutationRecord&)>& trial) {
  MutationRecord current = record;
  for (std::size_t i = 0; i < current.size();) {
    if (current.size() == 1) break;  // already minimal; never try the empty record
    MutationRecord candidate;
    candidate.reserve(current.size() - 1);
    for (std::size_t j = 0; j < current.size(); ++j)
      if (j != i) candidate.push_back(current[j]);
    if (trial(candidate) == TrialClass::kEscaped) {
      current = std::move(candidate);  // the next element shifted into slot i
    } else {
      ++i;
    }
  }
  return current;
}

double CellResult::detection_rate() const {
  const std::uint64_t effective = detected + escaped;
  if (effective == 0) return 1.0;
  return static_cast<double>(detected) / static_cast<double>(effective);
}

std::uint64_t CampaignResult::jobs_run() const {
  std::uint64_t total = 0;
  for (const auto& cell : cells) total += cell.jobs;
  return total;
}

bool CampaignResult::authenticated_clean() const {
  return std::all_of(cells.begin(), cells.end(), [](const CellResult& c) {
    return !c.authenticated || c.escapes.empty();
  });
}

// ---------------------------------------------------------------------------
// Record codecs (the document, the shard merge and the cache payload)
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kSchema = "sofia-attack-campaign-v1";

void record_to_json(const MutationRecord& record, json::Writer& w) {
  w.begin_array();
  for (const Mutation& m : record) to_json(m, w);
  w.end_array();
}

crypto::Granularity parse_granularity(const std::string& name) {
  for (const auto g :
       {crypto::Granularity::kPerPair, crypto::Granularity::kPerWord})
    if (crypto::to_string(g) == name) return g;
  throw Error("merge: unknown granularity '" + name + "'");
}

sim::ResetCause parse_cause(const std::string& name) {
  for (std::size_t i = 0; i < kResetCauseCount; ++i)
    if (sim::to_string(static_cast<sim::ResetCause>(i)) == name)
      return static_cast<sim::ResetCause>(i);
  throw Error("unknown reset cause '" + name + "'");
}

MutationRecord record_from_json(const json::Value& v,
                                std::string_view context) {
  MutationRecord record;
  for (const auto& m : v.as_array(context))
    record.push_back(mutation_from_json(m));
  return record;
}

void write_escape(const EscapeRecord& e, json::Writer& w) {
  w.begin_object();
  w.member("job", e.job);
  w.member("status", e.status);
  w.member("output_clean", e.output_clean);
  w.key("mutations");
  record_to_json(e.applied, w);
  w.key("minimized");
  record_to_json(e.minimized, w);
  w.key("lint").begin_array();
  for (const verify::Rule rule : e.lint) w.value(verify::to_string(rule));
  w.end_array();
  w.end_object();
}

/// Inverse of write_escape; errors name `context` ("trial").
EscapeRecord read_escape(const json::Value& v, std::string_view context) {
  EscapeRecord e;
  e.job = v.at("job", context).as_uint("job");
  e.status = v.at("status", context).as_string("status");
  e.output_clean = v.at("output_clean", context).as_bool("output_clean");
  e.applied = record_from_json(v.at("mutations", context), "mutations");
  e.minimized = record_from_json(v.at("minimized", context), "minimized");
  for (const auto& rule : v.at("lint", context).as_array("lint")) {
    const std::string& name = rule.as_string("lint");
    const verify::RuleInfo* info = verify::find_rule(name);
    if (info == nullptr)
      throw Error(std::string(context) + ": unknown lint rule '" + name + "'");
    e.lint.push_back(info->rule);
  }
  return e;
}

}  // namespace

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

pipeline::DeviceProfile cell_profile(const CampaignSpec& spec,
                                     const CellSpec& cell) {
  auto profile = pipeline::DeviceProfile::from_seed(cell.cipher, spec.seed);
  profile.granularity = cell.granularity;
  profile.scheme = pipeline::DeviceProfile::parse_scheme(cell.scheme);
  profile.backend = pipeline::DeviceProfile::parse_backend(spec.backend);
  return profile;
}

}  // namespace

Target::Target(const std::string& source,
               const pipeline::DeviceProfile& profile,
               std::uint16_t donor_omega)
    : Target(
          [&](const pipeline::DeviceProfile& p, const std::string& name) {
            return pipeline::Pipeline::from_source(source, p, name);
          },
          profile, donor_omega, "attack target") {}

Target::Target(const CampaignSpec& spec, const CellSpec& cell)
    : Target(
          [&](const pipeline::DeviceProfile& p, const std::string& name) {
            if (spec.workload.empty())
              return pipeline::Pipeline::from_source(kBuiltinVictim, p, name);
            const auto& wl = workloads::workload(spec.workload);
            const std::uint32_t size =
                spec.size != 0 ? spec.size : wl.default_size;
            return pipeline::Pipeline::from_workload(wl, spec.seed, size, p);
          },
          cell_profile(spec, cell), spec.donor_omega,
          "campaign[" + cell.label() + "]") {}

Target::Target(const SessionFactory& make,
               const pipeline::DeviceProfile& profile,
               std::uint16_t donor_omega, const std::string& label)
    : session_(std::make_unique<pipeline::Pipeline>(
          make(profile, "campaign-victim"))) {
  sim::SimConfig config;
  config.max_cycles = kTrialBudget;
  session_->set_sim_config(config);

  image_ = session_->hardened().image;
  vanilla_ = session_->vanilla_image();
  clean_ = session_->run();
  if (!clean_.ok())
    throw Error(label + ": clean run failed: " +
                std::string(to_string(clean_.status)));
  model_ = verify::model_of(session_->hardened());

  // The donor: the same program sealed under another version nonce (the
  // cross-version replay's ingredient). Built through its own session so
  // the toolchain stages stay byte-faithful to a real rollout.
  auto donor_profile = profile;
  donor_profile.omega_override = donor_omega;
  donor_ = make(donor_profile, "campaign-donor").hardened().image;

  geometry_.text_words = static_cast<std::uint32_t>(image_.text.size());
  geometry_.words_per_block = profile.policy.words_per_block;
  geometry_.text_base = image_.text_base;
  // The retarget surface: the union of every declared indirect target set,
  // and the aligned data words initially holding one of those addresses
  // (the dispatch slots a surviving jalr reads its target from). Both stay
  // empty under schemes that devirtualize indirect jumps.
  std::vector<std::uint32_t> targets;
  for (const auto& blk : model_.blocks)
    targets.insert(targets.end(), blk.jalr_targets.begin(),
                   blk.jalr_targets.end());
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  geometry_.indirect_targets = std::move(targets);
  if (!geometry_.indirect_targets.empty()) {
    const auto& data = image_.data;
    for (std::uint32_t off = 0; off + 4 <= data.size(); off += 4) {
      std::uint32_t value = 0;
      for (std::uint32_t j = 0; j < 4; ++j)
        value |= static_cast<std::uint32_t>(data[off + j]) << (8 * j);
      if (std::binary_search(geometry_.indirect_targets.begin(),
                             geometry_.indirect_targets.end(), value))
        geometry_.dispatch_slots.push_back(off);
    }
  }
}

assembler::LoadImage Target::tampered(const MutationRecord& record,
                                      sim::SimConfig& config) const {
  auto image = image_;
  apply(record, image, config, {geometry_.words_per_block, &donor_});
  return image;
}

sim::RunResult Target::execute(const MutationRecord& record) const {
  sim::SimConfig config = session_->sim_config();
  const auto image = tampered(record, config);
  return session_->run_image(image, config);
}

sim::RunResult Target::execute_vanilla(const MutationRecord& record) const {
  sim::SimConfig config = session_->sim_config();
  auto image = vanilla_;
  apply(record, image, config, {});
  return session_->run_image(image, config);
}

std::uint32_t Target::aim(const std::string& label) const {
  const auto& hardened = session_->hardened();
  const auto it = hardened.normalized.text_labels.find(label);
  if (it == hardened.normalized.text_labels.end())
    throw Error("attack target: unknown text label '" + label + "'");
  return hardened.layout.block_base_addr(it->second);
}

std::uint32_t Target::aim_vanilla(const std::string& label) const {
  return assembler::resolve_vanilla(session_->program(), {}, label);
}

namespace {

/// One matrix cell's prepared attack surface: the victim as a Target plus
/// the static-lint reference and the per-cell cache digest. All trial-time
/// access is const.
struct Fixture {
  Target target;
  verify::DeviceSpec device_spec;
  /// Digest over the cell's whole attack surface (profile fingerprint,
  /// base + donor image bytes, canonical SimConfig encoding, campaign
  /// seed) — the per-trial cache key is (this, global job index).
  std::string cache_digest;

  Fixture(const CampaignSpec& spec, const CellSpec& cell)
      : target(spec, cell), device_spec(target.session().device_spec()) {
    const auto& session = target.session();
    cache::KeyBuilder kb("sofia-cache-key-v1/campaign-fixture");
    kb.field("profile", session.profile().fingerprint());
    kb.field("base_image", assembler::serialize_image(target.image()));
    kb.field("donor", assembler::serialize_image(target.donor()));
    kb.field("config", remote::encode_config(session.effective_sim_config()));
    kb.field("seed", spec.seed);
    cache_digest = cache::to_hex(kb.finish());
  }
};

// ---- trial codec: result-cache payloads and shard-document records ------

TrialClass parse_class(const std::string& name) {
  for (const auto cls : {TrialClass::kDetected, TrialClass::kHarmless,
                         TrialClass::kEscaped})
    if (to_string(cls) == name) return cls;
  throw Error("unknown trial class '" + name + "'");
}

void write_trial(const Trial& t, json::Writer& w) {
  w.member("cls", to_string(t.cls));
  w.member("cause", sim::to_string(t.cause));
  w.member("insts", t.insts);
  w.key("record");
  record_to_json(t.record, w);
  if (t.cls == TrialClass::kEscaped) {
    w.key("escape");
    write_escape(t.escape, w);
  }
}

/// Inverse of write_trial, into a trial whose `job` is already set (the
/// cache decodes into the slot it looked up, the merge into the record's
/// index). Only what a run can produce decodes: a reset cause exactly when
/// detected, no more instructions than the trial budget (which also keeps
/// the fold's latency sums from wrapping), and an escape naming its own
/// job, which is what replays it.
void read_trial(const json::Value& doc, Trial& t) {
  constexpr std::string_view kContext = "trial";
  t.cls = parse_class(doc.at("cls", kContext).as_string("cls"));
  t.cause = parse_cause(doc.at("cause", kContext).as_string("cause"));
  if ((t.cls == TrialClass::kDetected) != (t.cause != sim::ResetCause::kNone))
    throw Error("a " + std::string(to_string(t.cls)) +
                " trial with reset cause '" +
                std::string(sim::to_string(t.cause)) + "'");
  t.insts = doc.at("insts", kContext).as_uint("insts");
  if (t.insts > kTrialBudget)
    throw Error("a trial retiring " + std::to_string(t.insts) +
                " instructions, past the trial budget");
  t.record = record_from_json(doc.at("record", kContext), "record");
  if (t.cls == TrialClass::kEscaped) {
    t.escape = read_escape(doc.at("escape", kContext), kContext);
    if (t.escape.job != t.job)
      throw Error("the escape of job " + std::to_string(t.job) +
                  " names job " + std::to_string(t.escape.job));
  }
}

constexpr driver::PayloadCodec<Trial> kTrialCodec{
    "campaign-trial", "sofia-cache-campaign-trial-v1", write_trial,
    read_trial};

/// The trial body. Returns false for a trial error — a failure of the run
/// rather than a verdict on the tamper (e.g. out of memory) — which must
/// retry on the next run rather than land in the cache.
bool attempt(const Fixture& fx, std::uint64_t job, const Rng& base, Trial& t) {
  try {
    Rng rng = base.fork(job);
    t.record = generate_record(rng, fx.target.geometry());
    const auto run = fx.target.execute(t.record);
    const std::string& clean_output = fx.target.clean_run().output;
    t.cls = classify(run, clean_output);
    t.cause = run.reset.cause;
    t.insts = run.stats.insts;
    if (t.cls == TrialClass::kEscaped) {
      t.escape.job = job;
      t.escape.status = std::string(to_string(run.status));
      t.escape.output_clean = run.output == clean_output;
      t.escape.applied = t.record;
      t.escape.minimized = minimize(t.record, [&](const MutationRecord& r) {
        return classify(fx.target.execute(r), clean_output);
      });
      // Static-layer attribution: which lint rules fire on the tampered
      // image (none for pure fault schedules — those are invisible offline).
      sim::SimConfig config = fx.target.session().sim_config();
      const auto image = fx.target.tampered(t.record, config);
      t.escape.lint = verify::error_rules(
          verify::lint(fx.target.model(), image, fx.device_spec));
    }
    return true;
  } catch (const std::exception& e) {
    // A trial-level failure (a replay error, an exception out of the
    // backend) is an escape with the error as its status: loud in the
    // document, gating the exit code, never sinking the campaign.
    t.cls = TrialClass::kEscaped;
    t.escape.job = job;
    t.escape.status = std::string("error: ") + e.what();
    t.escape.applied = t.record;
    t.escape.minimized = t.record;
    return false;
  }
}

Trial run_trial(const Fixture& fx, std::uint64_t job, const Rng& base,
                cache::ResultStore* store) {
  Trial t;
  t.job = job;
  const auto key = [&] {
    return cache::KeyBuilder("sofia-cache-key-v1/campaign-trial")
        .field("fixture", fx.cache_digest)
        .field("job", job)
        .finish();
  };
  driver::cache_through(store, kTrialCodec, job, key, t, [&](Trial& out) {
    return attempt(fx, job, base, out);
  });
  return t;
}

/// Tally `trials` (ascending job index) into result.cells, one per spec
/// cell, and count the cached ones: the one fold behind a run and a merge,
/// so tallies and escape lists never depend on thread interleaving, the
/// shard split or the cache.
void fold(const std::vector<Trial>& trials, CampaignResult& result) {
  const CampaignSpec& spec = result.spec;
  result.cells.resize(spec.cells.size());
  for (std::size_t c = 0; c < spec.cells.size(); ++c) {
    auto& cell = result.cells[c];
    cell.cell = spec.cells[c];
    cell.authenticated =
        scheme::get_scheme(spec.cells[c].scheme).traits().authenticated;
    cell.latency_min = ~0ull;
  }
  for (const Trial& t : trials) {
    auto& cell = result.cells[t.job / spec.jobs_per_cell];
    if (t.from_cache) ++result.cached_trials;
    ++cell.jobs;
    for (const Mutation& m : t.record)
      ++cell.mutations[static_cast<std::size_t>(m.kind)];
    switch (t.cls) {
      case TrialClass::kDetected:
        ++cell.detected;
        ++cell.causes[static_cast<std::size_t>(t.cause)];
        cell.latency_min = std::min(cell.latency_min, t.insts);
        cell.latency_max = std::max(cell.latency_max, t.insts);
        cell.latency_total += t.insts;
        break;
      case TrialClass::kHarmless:
        ++cell.harmless;
        break;
      case TrialClass::kEscaped:
        ++cell.escaped;
        cell.escapes.push_back(t.escape);
        break;
    }
  }
  for (auto& cell : result.cells)
    if (cell.detected == 0) cell.latency_min = 0;
}

}  // namespace

CampaignResult run_campaign(const CampaignSpec& spec, unsigned threads,
                            const CellProgressFn& progress,
                            driver::ShardSpec shard,
                            cache::ResultStore* store) {
  if (spec.cells.empty()) throw Error("campaign: no matrix cells");
  if (spec.jobs_per_cell == 0)
    throw Error("campaign: jobs_per_cell must be >= 1");

  const std::vector<std::uint64_t> jobs = shard.slice(spec.total_jobs());

  // Build fixtures only for cells this shard actually touches.
  std::vector<std::unique_ptr<Fixture>> fixtures(spec.cells.size());
  for (const std::uint64_t g : jobs) {
    const std::size_t cell = g / spec.jobs_per_cell;
    if (!fixtures[cell])
      fixtures[cell] = std::make_unique<Fixture>(spec, spec.cells[cell]);
  }

  CampaignResult result;
  result.spec = spec;
  result.shard = shard;

  std::vector<Trial> trials(jobs.size());
  const Rng base(spec.seed);
  const driver::PoolRun run =
      driver::for_each_index(jobs.size(), threads, [&](std::size_t i) {
        const std::uint64_t g = jobs[i];
        trials[i] =
            run_trial(*fixtures[g / spec.jobs_per_cell], g, base, store);
      });
  result.threads_used = run.threads;
  result.wall_seconds = run.wall_seconds;

  fold(trials, result);  // trials[] is already index-sorted
  if (progress)
    for (const auto& cell : result.cells) progress(cell);
  if (!shard.is_whole()) result.trials = std::move(trials);
  return result;
}

// ---------------------------------------------------------------------------
// JSON document
// ---------------------------------------------------------------------------

std::string to_json(const CampaignResult& result) {
  // A shard travels through a worker's pipe to a merge, never to a
  // reader: compact. The unsharded document stays pretty-printed.
  json::Writer w(result.shard.is_whole() ? 2 : -1);
  w.begin_object();
  w.member("schema", kSchema);
  w.member("campaign", result.spec.name);
  w.member("victim", result.spec.workload.empty() ? "builtin"
                                                  : result.spec.workload);
  w.member("size", result.spec.size);
  w.member("backend", result.spec.backend);
  w.member("seed", result.spec.seed);
  w.member("donor_omega",
           static_cast<std::uint64_t>(result.spec.donor_omega));
  w.member("jobs_per_cell",
           static_cast<std::uint64_t>(result.spec.jobs_per_cell));
  w.member("job_count", result.spec.total_jobs());
  if (!result.shard.is_whole()) w.member("shard", result.shard.to_string());
  w.key("cells").begin_array();
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const CellResult& cell = result.cells[c];
    w.begin_object();
    w.member("index", static_cast<std::uint64_t>(c));
    w.member("scheme", cell.cell.scheme);
    w.member("cipher", crypto::to_string(cell.cell.cipher));
    w.member("granularity", crypto::to_string(cell.cell.granularity));
    if (!result.shard.is_whole()) {  // a shard carries its trials instead
      w.end_object();
      continue;
    }
    w.member("authenticated", cell.authenticated);
    w.member("jobs", cell.jobs);
    w.member("detected", cell.detected);
    w.member("harmless", cell.harmless);
    w.member("escaped", cell.escaped);
    w.member("detection_rate", cell.detection_rate());
    w.key("causes").begin_object();
    for (std::size_t i = 0; i < kResetCauseCount; ++i)
      if (cell.causes[i] != 0)
        w.member(sim::to_string(static_cast<sim::ResetCause>(i)),
                 cell.causes[i]);
    w.end_object();
    w.key("mutations").begin_object();
    for (const auto& info : mutator_catalog()) {
      const auto n = cell.mutations[static_cast<std::size_t>(info.kind)];
      if (n != 0) w.member(info.name, n);
    }
    w.end_object();
    if (cell.detected != 0) {
      w.key("latency").begin_object();
      w.member("min_insts", cell.latency_min);
      w.member("max_insts", cell.latency_max);
      w.member("total_insts", cell.latency_total);
      w.member("mean_insts", static_cast<double>(cell.latency_total) /
                                 static_cast<double>(cell.detected));
      w.end_object();
    }
    w.key("escapes").begin_array();
    for (const EscapeRecord& e : cell.escapes) write_escape(e, w);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  if (!result.shard.is_whole()) {
    w.key("trials").begin_array();
    for (const Trial& t : result.trials) {
      w.begin_object();
      w.member("index", t.job);
      write_trial(t, w);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  return w.document();
}

// ---------------------------------------------------------------------------
// Shard merge
// ---------------------------------------------------------------------------

namespace {

/// An unsigned header member that must fit the spec field's type T.
template <typename T>
T narrow_member(const json::Value& doc, const char* key,
                const std::string& label) {
  const std::uint64_t v = doc.at(key, label).as_uint(key);
  if (v > std::numeric_limits<T>::max())
    throw Error(label + ": " + key + " " + std::to_string(v) +
                " is out of range");
  return static_cast<T>(v);
}

/// The campaign a document's header and cell identities describe.
CampaignSpec read_spec(const json::Value& doc, const std::string& label) {
  CampaignSpec spec;
  spec.name = doc.at("campaign", label).as_string("campaign");
  const auto victim = doc.at("victim", label).as_string("victim");
  if (victim != "builtin") workloads::workload(victim);  // throws if unknown
  spec.workload = victim == "builtin" ? "" : victim;
  spec.size = narrow_member<std::uint32_t>(doc, "size", label);
  spec.backend = pipeline::DeviceProfile::parse_backend(
      doc.at("backend", label).as_string("backend"));
  spec.seed = doc.at("seed", label).as_uint("seed");
  spec.donor_omega = narrow_member<std::uint16_t>(doc, "donor_omega", label);
  spec.jobs_per_cell =
      narrow_member<std::uint32_t>(doc, "jobs_per_cell", label);
  const auto& cells = doc.at("cells", label).as_array("cells");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto cl = label + " cell " + std::to_string(c);
    spec.cells.push_back(CellSpec{
        cells[c].at("scheme", cl).as_string("scheme"),
        pipeline::DeviceProfile::parse_cipher(
            cells[c].at("cipher", cl).as_string("cipher")),
        parse_granularity(
            cells[c].at("granularity", cl).as_string("granularity"))});
  }
  return spec;
}

}  // namespace

std::string merge_json(const std::vector<std::string>& documents) {
  if (documents.empty()) throw Error("merge: no input documents");

  CampaignResult merged;  // unsharded: the canonical document
  std::vector<json::Value> parsed;
  parsed.reserve(documents.size());
  for (std::size_t d = 0; d < documents.size(); ++d) {
    parsed.push_back(json::parse(documents[d]));
    const auto& doc = parsed.back();
    const auto label = "merge: document " + std::to_string(d);
    if (doc.at("schema", label).as_string("schema") != kSchema)
      throw Error(label + " is not a " + std::string(kSchema) + " document");
    CampaignSpec spec = read_spec(doc, label);
    if (d == 0) {
      merged.spec = std::move(spec);
    } else if (spec != merged.spec) {
      throw Error(label + " disagrees with document 0 on the campaign header");
    }
    const std::uint64_t job_count =
        doc.at("job_count", label).as_uint("job_count");
    if (job_count != merged.spec.total_jobs())
      throw Error(label + " has job_count " + std::to_string(job_count) +
                  " for " + std::to_string(merged.spec.cells.size()) +
                  " cell(s) x " + std::to_string(merged.spec.jobs_per_cell) +
                  " job(s)");
  }

  const auto records =
      driver::collect_records(parsed, "trials", merged.spec.total_jobs());
  std::vector<Trial> trials(records.size());
  for (std::uint64_t g = 0; g < trials.size(); ++g) {
    trials[g].job = g;
    try {
      read_trial(*records[g], trials[g]);
    } catch (const Error& e) {
      throw Error("merge: trial " + std::to_string(g) + ": " + e.what());
    }
  }
  fold(trials, merged);
  return to_json(merged);
}

int verdict(const json::Value& document, std::FILE* out) {
  constexpr std::string_view kContext = "campaign document";
  bool clean = true;
  // Authenticity comes from the scheme registry, not from the document.
  for (const auto& cell : document.at("cells", kContext).as_array(kContext))
    if (scheme::get_scheme(cell.at("scheme", kContext).as_string(kContext))
            .traits()
            .authenticated &&
        cell.at("escaped", kContext).as_uint(kContext) != 0)
      clean = false;
  std::fprintf(out, "%s\n", clean ? "authenticated schemes clean"
                                  : "ESCAPES in an authenticated scheme");
  return clean ? 0 : 1;
}

}  // namespace sofia::campaign
