#include "campaign/campaign.hpp"

#include <algorithm>
#include <memory>

#include "assembler/image_io.hpp"
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

/// Tampered runs can loop on garbage; every trial gets a bounded budget.
constexpr std::uint64_t kTrialBudget = 10'000'000;

}  // namespace

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
    const bool uses_gran = entry.get().traits().uses_granularity;
    for (const auto cipher :
         {crypto::CipherKind::kRectangle80, crypto::CipherKind::kSpeck64_128}) {
      for (const auto gran :
           {crypto::Granularity::kPerPair, crypto::Granularity::kPerWord}) {
        // A scheme that ignores the granularity axis seals identical bytes
        // for both values — one cell covers it.
        if (gran == crypto::Granularity::kPerWord && !uses_gran) continue;
        spec.cells.push_back(
            CellSpec{std::string(entry.name), cipher, gran});
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
  throw Error("merge: unknown reset cause '" + name + "'");
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

/// Inverse of write_escape; errors name `context` ("merge: document 1
/// cell 2", "cached trial").
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

/// One matrix cell's prepared attack surface: the victim transformed once,
/// the donor build for cross-version splices, the clean-run baseline and
/// the static-lint reference. All trial-time access is const.
struct Fixture {
  std::unique_ptr<pipeline::Pipeline> session;
  assembler::LoadImage base_image;
  std::string clean_output;
  verify::ProgramModel model;
  verify::DeviceSpec device_spec;
  assembler::LoadImage donor;
  ImageGeometry geometry;
  sim::SimConfig base_config;
  /// Digest over the cell's whole attack surface (profile fingerprint,
  /// base + donor image bytes, canonical SimConfig encoding, campaign
  /// seed) — the per-trial cache key is (this, global job index).
  std::string cache_digest;

  /// Built per call (never stored): a stored donor pointer would dangle
  /// the moment the fixture moves into its slot.
  ApplyContext ctx() const { return {geometry.words_per_block, &donor}; }
};

pipeline::DeviceProfile cell_profile(const CampaignSpec& spec,
                                     const CellSpec& cell) {
  auto profile = pipeline::DeviceProfile::from_seed(cell.cipher, spec.seed);
  profile.granularity = cell.granularity;
  profile.scheme = pipeline::DeviceProfile::parse_scheme(cell.scheme);
  profile.backend = pipeline::DeviceProfile::parse_backend(spec.backend);
  return profile;
}

std::unique_ptr<pipeline::Pipeline> victim_session(
    const CampaignSpec& spec, const pipeline::DeviceProfile& profile,
    const std::string& name) {
  if (spec.workload.empty()) {
    return std::make_unique<pipeline::Pipeline>(
        pipeline::Pipeline::from_source(kBuiltinVictim, profile, name));
  }
  const auto& wl = workloads::workload(spec.workload);
  const std::uint32_t size = spec.size != 0 ? spec.size : wl.default_size;
  return std::make_unique<pipeline::Pipeline>(
      pipeline::Pipeline::from_workload(wl, spec.seed, size, profile));
}

Fixture make_fixture(const CampaignSpec& spec, const CellSpec& cell) {
  Fixture fx;
  const auto profile = cell_profile(spec, cell);
  fx.session = victim_session(spec, profile, "campaign-victim");
  sim::SimConfig config;
  config.max_cycles = kTrialBudget;
  fx.session->set_sim_config(config);

  fx.base_image = fx.session->hardened().image;
  const auto& clean = fx.session->run();
  if (!clean.ok())
    throw Error("campaign[" + cell.label() + "]: clean run failed: " +
                std::string(to_string(clean.status)));
  fx.clean_output = clean.output;
  fx.model = verify::model_of(fx.session->hardened());
  fx.device_spec = fx.session->device_spec();

  // The donor: the same program sealed under another version nonce (the
  // cross-version replay's ingredient). Built through its own session so
  // the toolchain stages stay byte-faithful to a real rollout.
  auto donor_profile = profile;
  donor_profile.omega_override = spec.donor_omega;
  auto donor_session = victim_session(spec, donor_profile, "campaign-donor");
  fx.donor = donor_session->hardened().image;

  fx.geometry.text_words = static_cast<std::uint32_t>(fx.base_image.text.size());
  fx.geometry.words_per_block = profile.policy.words_per_block;
  fx.geometry.text_base = fx.base_image.text_base;
  // The retarget surface: the union of every declared indirect target set,
  // and the aligned data words initially holding one of those addresses
  // (the dispatch slots a surviving jalr reads its target from). Both stay
  // empty under schemes that devirtualize indirect jumps.
  std::vector<std::uint32_t> targets;
  for (const auto& blk : fx.model.blocks)
    targets.insert(targets.end(), blk.jalr_targets.begin(),
                   blk.jalr_targets.end());
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  fx.geometry.indirect_targets = std::move(targets);
  if (!fx.geometry.indirect_targets.empty()) {
    const auto& data = fx.base_image.data;
    for (std::uint32_t off = 0; off + 4 <= data.size(); off += 4) {
      std::uint32_t value = 0;
      for (std::uint32_t j = 0; j < 4; ++j)
        value |= static_cast<std::uint32_t>(data[off + j]) << (8 * j);
      if (std::binary_search(fx.geometry.indirect_targets.begin(),
                             fx.geometry.indirect_targets.end(), value))
        fx.geometry.dispatch_slots.push_back(off);
    }
  }
  fx.base_config = fx.session->sim_config();

  cache::KeyBuilder kb("sofia-cache-key-v1/campaign-fixture");
  kb.field("profile", profile.fingerprint());
  kb.field("base_image", assembler::serialize_image(fx.base_image));
  kb.field("donor", assembler::serialize_image(fx.donor));
  kb.field("config",
           remote::encode_config(fx.session->effective_sim_config()));
  kb.field("seed", spec.seed);
  fx.cache_digest = cache::to_hex(kb.finish());
  return fx;
}

/// Apply a record to fresh copies and execute (the one trial primitive the
/// classifier, the minimizer and the replay all share).
sim::RunResult execute(const Fixture& fx, const MutationRecord& record) {
  auto image = fx.base_image;
  sim::SimConfig config = fx.base_config;
  apply(record, image, config, fx.ctx());
  return fx.session->run_image(image, config);
}

/// One trial's folded outcome (index-owned slot in the pool).
struct Trial {
  TrialClass cls = TrialClass::kHarmless;
  sim::ResetCause cause = sim::ResetCause::kNone;
  std::uint64_t insts = 0;
  MutationRecord record;
  EscapeRecord escape;     ///< valid when cls == kEscaped
  bool from_cache = false;  ///< served without executing (not in the JSON)
};

// ---- result-cache payload codec -------------------------------------------

TrialClass parse_class(const std::string& name) {
  for (const auto cls : {TrialClass::kDetected, TrialClass::kHarmless,
                         TrialClass::kEscaped})
    if (to_string(cls) == name) return cls;
  throw Error("cache payload: unknown trial class '" + name + "'");
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

void read_trial(const json::Value& doc, Trial& t) {
  constexpr std::string_view kContext = "cached trial";
  t.cls = parse_class(doc.at("cls", kContext).as_string("cls"));
  t.cause = parse_cause(doc.at("cause", kContext).as_string("cause"));
  t.insts = doc.at("insts", kContext).as_uint("insts");
  t.record = record_from_json(doc.at("record", kContext), "record");
  if (t.cls == TrialClass::kEscaped)
    t.escape = read_escape(doc.at("escape", kContext), kContext);
}

constexpr driver::PayloadCodec<Trial> kTrialCodec{
    "campaign-trial", "sofia-cache-campaign-trial-v1", write_trial,
    read_trial};

/// The trial body. Returns false for a trial error — an environmental
/// failure (e.g. a lost transport) that must retry on the next run rather
/// than land in the cache.
bool attempt(const Fixture& fx, std::uint64_t job, const Rng& base, Trial& t) {
  try {
    Rng rng = base.fork(job);
    t.record = generate_record(rng, fx.geometry);
    const auto run = execute(fx, t.record);
    t.cls = classify(run, fx.clean_output);
    t.cause = run.reset.cause;
    t.insts = run.stats.insts;
    if (t.cls == TrialClass::kEscaped) {
      t.escape.job = job;
      t.escape.status = std::string(to_string(run.status));
      t.escape.output_clean = run.output == fx.clean_output;
      t.escape.applied = t.record;
      t.escape.minimized = minimize(t.record, [&](const MutationRecord& r) {
        return classify(execute(fx, r), fx.clean_output);
      });
      // Static-layer attribution: which lint rules fire on the tampered
      // image (none for pure fault schedules — those are invisible offline).
      auto image = fx.base_image;
      sim::SimConfig config = fx.base_config;
      apply(t.record, image, config, fx.ctx());
      t.escape.lint =
          verify::error_rules(verify::lint(fx.model, image, fx.device_spec));
    }
    return true;
  } catch (const std::exception& e) {
    // A trial-level failure (replay error, backend transport loss) is an
    // escape with the error as its status: loud in the document, gating
    // the exit code, never sinking the campaign.
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
      fixtures[cell] = std::make_unique<Fixture>(
          make_fixture(spec, spec.cells[cell]));
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

  // Fold in job-index order (trials[] is already index-sorted), so tallies
  // and escape lists are independent of thread interleaving.
  result.cells.resize(spec.cells.size());
  for (std::size_t c = 0; c < spec.cells.size(); ++c) {
    auto& cell = result.cells[c];
    cell.cell = spec.cells[c];
    cell.authenticated =
        scheme::get_scheme(spec.cells[c].scheme).traits().authenticated;
    cell.latency_min = ~0ull;
  }
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const Trial& t = trials[i];
    auto& cell = result.cells[jobs[i] / spec.jobs_per_cell];
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
  for (auto& cell : result.cells) {
    if (cell.detected == 0) cell.latency_min = 0;
    if (progress) progress(cell);
  }
  return result;
}

// ---------------------------------------------------------------------------
// JSON document
// ---------------------------------------------------------------------------

std::string to_json(const CampaignResult& result) {
  json::Writer w(2);
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
  w.end_object();
  return w.document();
}

// ---------------------------------------------------------------------------
// Shard merge
// ---------------------------------------------------------------------------

std::string merge_json(const std::vector<std::string>& documents) {
  if (documents.empty()) throw Error("merge: no input documents");

  CampaignResult merged;
  std::vector<bool> shard_seen;
  std::uint32_t shard_count = 0;

  for (std::size_t d = 0; d < documents.size(); ++d) {
    const json::Value doc = json::parse(documents[d]);
    const auto label = "merge: document " + std::to_string(d);
    if (doc.at("schema", label).as_string("schema") != kSchema)
      throw Error(label + " is not a " + std::string(kSchema) + " document");

    CampaignSpec spec;
    spec.name = doc.at("campaign", label).as_string("campaign");
    const auto victim = doc.at("victim", label).as_string("victim");
    spec.workload = victim == "builtin" ? "" : victim;
    spec.size = static_cast<std::uint32_t>(doc.at("size", label).as_uint("size"));
    spec.backend = doc.at("backend", label).as_string("backend");
    spec.seed = doc.at("seed", label).as_uint("seed");
    spec.donor_omega = static_cast<std::uint16_t>(
        doc.at("donor_omega", label).as_uint("donor_omega"));
    spec.jobs_per_cell = static_cast<std::uint32_t>(
        doc.at("jobs_per_cell", label).as_uint("jobs_per_cell"));

    const auto shard =
        driver::ShardSpec::parse(doc.at("shard", label).as_string("shard"));
    if (d == 0) {
      shard_count = shard.count;
      if (documents.size() != shard_count)
        throw Error("merge: got " + std::to_string(documents.size()) +
                    " document(s) for " + std::to_string(shard_count) +
                    " shard(s)");
      shard_seen.assign(shard_count, false);
    } else if (shard.count != shard_count) {
      throw Error(label + " disagrees on the shard count");
    }
    if (shard_seen[shard.index])
      throw Error("merge: shard " + std::to_string(shard.index) +
                  " appears in more than one document");
    shard_seen[shard.index] = true;

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
    if (d == 0) {
      merged.spec = spec;
      merged.cells.resize(cells.size());
    } else if (spec != merged.spec) {
      throw Error(label + " disagrees with document 0 on the campaign header");
    }

    for (std::size_t c = 0; c < cells.size(); ++c) {
      const auto& jc = cells[c];
      const auto cl = label + " cell " + std::to_string(c);
      auto& out = merged.cells[c];
      if (d == 0) {
        out.cell = spec.cells[c];
        out.authenticated = jc.at("authenticated", cl).as_bool("authenticated");
        out.latency_min = ~0ull;
      }
      out.jobs += jc.at("jobs", cl).as_uint("jobs");
      const std::uint64_t detected = jc.at("detected", cl).as_uint("detected");
      out.detected += detected;
      out.harmless += jc.at("harmless", cl).as_uint("harmless");
      const std::uint64_t escaped = jc.at("escaped", cl).as_uint("escaped");
      out.escaped += escaped;
      for (const auto& [name, count] : jc.at("causes", cl).object)
        out.causes[static_cast<std::size_t>(parse_cause(name))] +=
            count.as_uint("causes");
      for (const auto& [name, count] : jc.at("mutations", cl).object)
        out.mutations[static_cast<std::size_t>(parse_mutation_kind(name))] +=
            count.as_uint("mutations");
      if (detected != 0) {
        const auto& lat = jc.at("latency", cl);
        out.latency_min =
            std::min(out.latency_min, lat.at("min_insts", cl).as_uint("min_insts"));
        out.latency_max =
            std::max(out.latency_max, lat.at("max_insts", cl).as_uint("max_insts"));
        out.latency_total += lat.at("total_insts", cl).as_uint("total_insts");
      }
      // Each escape must be one of this cell's jobs that this document's
      // shard actually ran, and the list must match the tally it sums into.
      const auto& escapes = jc.at("escapes", cl).as_array("escapes");
      if (escapes.size() != escaped)
        throw Error(cl + " lists " + std::to_string(escapes.size()) +
                    " escape(s) but tallies " + std::to_string(escaped));
      const std::uint64_t first = c * std::uint64_t{spec.jobs_per_cell};
      for (const auto& je : escapes) {
        EscapeRecord e = read_escape(je, cl);
        if (e.job < first || e.job - first >= spec.jobs_per_cell ||
            !shard.owns(e.job))
          throw Error(cl + " has an escape for job " + std::to_string(e.job) +
                      ", not a job of this cell in shard " + shard.to_string());
        out.escapes.push_back(std::move(e));
      }
    }
  }

  for (std::uint32_t k = 0; k < shard_count; ++k)
    if (!shard_seen[k])
      throw Error("merge: shard " + std::to_string(k) +
                  " is missing from the inputs");

  for (auto& cell : merged.cells) {
    if (cell.detected == 0) cell.latency_min = 0;
    if (cell.jobs != merged.spec.jobs_per_cell)
      throw Error("merge: cell '" + cell.cell.label() + "' sums to " +
                  std::to_string(cell.jobs) + " job(s), expected " +
                  std::to_string(merged.spec.jobs_per_cell));
    std::sort(cell.escapes.begin(), cell.escapes.end(),
              [](const EscapeRecord& a, const EscapeRecord& b) {
                return a.job < b.job;
              });
    const auto dup = std::adjacent_find(
        cell.escapes.begin(), cell.escapes.end(),
        [](const EscapeRecord& a, const EscapeRecord& b) {
          return a.job == b.job;
        });
    if (dup != cell.escapes.end())
      throw Error("merge: cell '" + cell.cell.label() +
                  "' lists the escape for job " + std::to_string(dup->job) +
                  " more than once");
  }

  merged.shard = driver::ShardSpec{};  // the canonical unsharded document
  return to_json(merged);
}

}  // namespace sofia::campaign
