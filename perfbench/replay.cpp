#include "replay.hpp"

#include <algorithm>
#include <chrono>

#include "assembler/image_io.hpp"
#include "cfg/cfg.hpp"
#include "crypto/cbc_mac.hpp"
#include "isa/isa.hpp"
#include "remote/codec.hpp"
#include "scheme/scheme.hpp"
#include "support/json.hpp"
#include "verify/dataflow.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

using namespace sofia;

const char kBuiltinVictim[] = R"(
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

namespace {

/// The campaign engine's per-trial instruction budget (private there too;
/// the fixture digest covers it through the encoded SimConfig).
constexpr std::uint64_t kTrialBudget = 10'000'000;

/// Cipher probe results land here so the timed loops cannot be elided.
volatile std::uint64_t g_probe_sink = 0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string sim_span_name(const pipeline::Pipeline& p) {
  return "sim." + p.profile().backend + ".run";
}

/// Record a run's simulated counts on its span.
void note_run(Span& s, const sim::RunResult& r, crypto::CipherKind cipher) {
  const auto& st = r.stats;
  s.arg("cycles", static_cast<double>(st.cycles));
  s.arg("insts", static_cast<double>(st.insts));
  s.arg("ctr_ops", static_cast<double>(st.ctr_ops));
  s.arg("cbc_ops", static_cast<double>(st.cbc_ops));
  s.arg("blocks_fetched", static_cast<double>(st.blocks_fetched));
  s.arg("icache_misses", static_cast<double>(st.icache_misses));
  s.arg("queue_empty_cycles", static_cast<double>(st.queue_empty_cycles));
  s.arg("store_gate_stalls", static_cast<double>(st.store_gate_stalls));
  const bool exhausted = r.status == sim::RunResult::Status::kMaxCycles;
  s.arg("exhausted", exhausted ? 1 : 0);
  s.arg("exhausted_insts", exhausted ? static_cast<double>(st.insts) : 0);
  s.arg(cipher == crypto::CipherKind::kRectangle80 ? "rectangle80_ops"
                                                   : "speck64_ops",
        static_cast<double>(st.ctr_ops + st.cbc_ops));
}

void note_transform(Span& s, const xform::TransformResult& h) {
  s.arg("blocks", static_cast<double>(h.layout.blocks().size()));
  s.arg("text_bytes_in", h.stats.text_bytes_in);
  s.arg("text_bytes_out", h.stats.text_bytes_out);
}

// ---- sweep jobs -------------------------------------------------------------

struct StatField {
  const char* name;
  std::uint64_t sim::SimStats::*member;
};

/// Every SimStats field, in the order the sweep's cache payload writes them.
constexpr StatField kStatFields[] = {
    {"cycles", &sim::SimStats::cycles},
    {"insts", &sim::SimStats::insts},
    {"nops", &sim::SimStats::nops},
    {"loads", &sim::SimStats::loads},
    {"stores", &sim::SimStats::stores},
    {"branches", &sim::SimStats::branches},
    {"taken", &sim::SimStats::taken},
    {"icache_hits", &sim::SimStats::icache_hits},
    {"icache_misses", &sim::SimStats::icache_misses},
    {"fetch_words", &sim::SimStats::fetch_words},
    {"mac_words", &sim::SimStats::mac_words},
    {"ctr_ops", &sim::SimStats::ctr_ops},
    {"cbc_ops", &sim::SimStats::cbc_ops},
    {"blocks_fetched", &sim::SimStats::blocks_fetched},
    {"mac_verifications", &sim::SimStats::mac_verifications},
    {"store_gate_stalls", &sim::SimStats::store_gate_stalls},
    {"queue_empty_cycles", &sim::SimStats::queue_empty_cycles},
    {"exec_stall_cycles", &sim::SimStats::exec_stall_cycles},
};

bool same_stats(const sim::SimStats& a, const sim::SimStats& b) {
  return std::all_of(std::begin(kStatFields), std::end(kStatFields),
                     [&](const StatField& f) { return a.*f.member == b.*f.member; });
}

void write_stats(const sim::SimStats& s, json::Writer& w) {
  w.begin_object();
  for (const auto& f : kStatFields) w.member(f.name, s.*f.member);
  w.end_object();
}

sim::SimStats read_stats(const json::Value& v) {
  sim::SimStats s;
  for (const auto& f : kStatFields) {
    const auto* m = v.find(f.name);
    if (m == nullptr) throw Error(std::string("payload: missing ") + f.name);
    s.*f.member = m->as_uint(f.name);
  }
  return s;
}

const json::Value& member(const json::Value& v, std::string_view key) {
  const auto* m = v.find(key);
  if (m == nullptr) throw Error("payload: missing '" + std::string(key) + "'");
  return *m;
}

constexpr std::string_view kJobKind = "sweep-job";

/// The sweep driver's payload for a successful job (sofia-cache-sweep-job-v1).
std::string encode_job_payload(const pipeline::Measurement& m) {
  json::Writer w(-1);
  w.begin_object();
  w.member("schema", "sofia-cache-sweep-job-v1");
  w.member("ok", true);
  w.key("m").begin_object();
  w.member("name", m.name);
  w.member("vanilla_text_bytes", m.vanilla_text_bytes);
  w.member("sofia_text_bytes", m.sofia_text_bytes);
  w.member("vanilla_cycles", m.vanilla_cycles);
  w.member("sofia_cycles", m.sofia_cycles);
  w.key("vanilla_stats");
  write_stats(m.vanilla_stats, w);
  w.key("sofia_stats");
  write_stats(m.sofia_stats, w);
  w.end_object();
  w.end_object();
  return w.str();
}

pipeline::Measurement decode_job_payload(const std::string& payload) {
  const json::Value doc = json::parse(payload);
  if (!member(doc, "ok").boolean) throw Error("payload: cached job failed");
  const json::Value& jm = member(doc, "m");
  pipeline::Measurement m;
  m.name = member(jm, "name").as_string("name");
  m.vanilla_text_bytes = static_cast<std::uint32_t>(
      member(jm, "vanilla_text_bytes").as_uint("vanilla_text_bytes"));
  m.sofia_text_bytes = static_cast<std::uint32_t>(
      member(jm, "sofia_text_bytes").as_uint("sofia_text_bytes"));
  m.vanilla_cycles = member(jm, "vanilla_cycles").as_uint("vanilla_cycles");
  m.sofia_cycles = member(jm, "sofia_cycles").as_uint("sofia_cycles");
  m.vanilla_stats = read_stats(member(jm, "vanilla_stats"));
  m.sofia_stats = read_stats(member(jm, "sofia_stats"));
  return m;
}

/// The sweep driver's content address for a job.
cache::Key job_key(const driver::JobSpec& job, pipeline::Pipeline& p) {
  cache::KeyBuilder kb("sofia-cache-key-v1/sweep-job");
  kb.field("fingerprint", job.config.fingerprint());
  kb.field("image", assembler::serialize_image(p.hardened().image));
  kb.field("config", remote::encode_config(p.effective_sim_config()));
  kb.field("workload", job.workload);
  kb.field("seed", job.seed);
  kb.field("size", job.size);
  kb.field("lint", job.lint ? 1 : 0);
  return kb.finish();
}

struct JobOutcome {
  bool ok = false;
  bool from_cache = false;
  std::size_t lint_errors = 0;
  pipeline::Measurement m;
};

/// One sweep job, call for call as driver::run_sweep runs it.
JobOutcome replay_job(const driver::JobSpec& job, cache::ResultStore* store,
                      Tracer& tr, std::unique_ptr<pipeline::Pipeline>& session) {
  JobOutcome out;
  Span span(tr, "driver.job", static_cast<std::int64_t>(job.index));
  try {
    const auto& wl = workloads::workload(job.workload);
    std::string source;
    std::string golden;
    {
      Span s(tr, "workloads.generate");
      source = wl.source(job.seed, job.size);
      golden = wl.golden(job.seed, job.size);
    }
    session = std::make_unique<pipeline::Pipeline>(pipeline::Pipeline::from_source(
        std::move(source), job.config.opts.profile, wl.name));
    pipeline::Pipeline& p = *session;
    p.set_expected_output(std::move(golden));
    p.set_sim_config(job.config.opts.config);
    p.set_memory_layout(job.config.opts.mem);
    {
      Span s(tr, "assembler.assemble");
      p.program();
    }
    {
      Span s(tr, "xform.transform");
      note_transform(s, p.hardened());
    }
    cache::Key key{};
    if (store != nullptr) {
      {
        Span s(tr, "cache.key");
        key = job_key(job, p);
      }
      Span s(tr, "cache.load");
      if (auto payload = store->load(key, kJobKind)) {
        s.rename("cache.load.hit");
        out.m = decode_job_payload(*payload);
        out.ok = out.from_cache = true;
        return out;
      }
      s.rename("cache.load.miss");
    }
    if (job.lint) {
      verify::ProgramModel model;
      {
        Span s(tr, "verify.model");
        model = verify::model_of(p.hardened());
      }
      Span s(tr, "verify.lint");
      const verify::Report report = verify::lint(model, p.image(), p.device_spec());
      out.lint_errors = report.count(verify::Severity::kError);
      s.arg("errors", static_cast<double>(out.lint_errors));
      if (!report.clean()) return out;
    }
    {
      Span s(tr, "assembler.link");
      p.vanilla_image();
    }
    const auto cipher = p.profile().cipher;
    {
      Span s(tr, sim_span_name(p));
      note_run(s, p.run_vanilla(), cipher);
    }
    {
      Span s(tr, sim_span_name(p));
      note_run(s, p.run(), cipher);
    }
    out.m = p.measure();  // both runs are cached: only the output checks run
    out.ok = true;
    if (store != nullptr) {
      Span s(tr, "cache.store");
      store->store(key, kJobKind, encode_job_payload(out.m));
    }
  } catch (const std::exception&) {
    out.ok = false;
  }
  return out;
}

std::string job_mismatch(const JobOutcome& o, const driver::JobResult& r) {
  const std::string at = "job " + std::to_string(r.job.index) + ": ";
  if (o.ok != r.ok) return at + "ok differs";
  if (o.from_cache != r.from_cache) return at + "cache hit/miss differs";
  if (o.lint_errors != r.lint.size()) return at + "lint findings differ";
  if (!o.ok) return {};
  if (o.m.vanilla_text_bytes != r.m.vanilla_text_bytes ||
      o.m.sofia_text_bytes != r.m.sofia_text_bytes)
    return at + "text bytes differ";
  if (!same_stats(o.m.vanilla_stats, r.m.vanilla_stats) ||
      !same_stats(o.m.sofia_stats, r.m.sofia_stats))
    return at + "SimStats differ";
  return {};
}

// ---- campaign trials --------------------------------------------------------

/// One cell's attack surface, built as campaign::run_campaign builds it.
struct Fixture {
  std::unique_ptr<pipeline::Pipeline> session;
  assembler::LoadImage base_image;
  std::string clean_output;
  verify::ProgramModel model;
  verify::DeviceSpec device_spec;
  assembler::LoadImage donor;
  campaign::ImageGeometry geometry;
  sim::SimConfig base_config;
  std::string digest;

  campaign::ApplyContext ctx() const { return {geometry.words_per_block, &donor}; }
};

/// The built-in victim under `profile`, assembled (the benchmark's
/// campaigns never name a registry workload as the victim).
std::unique_ptr<pipeline::Pipeline> victim_session(
    const pipeline::DeviceProfile& profile, const std::string& name, Tracer& tr) {
  auto p = std::make_unique<pipeline::Pipeline>(
      pipeline::Pipeline::from_source(kBuiltinVictim, profile, name));
  Span s(tr, "assembler.assemble");
  p->program();
  return p;
}

Fixture make_fixture(const campaign::CampaignSpec& spec,
                     const campaign::CellSpec& cell, Tracer& tr) {
  Span span(tr, "campaign.fixture");
  Fixture fx;
  auto profile = pipeline::DeviceProfile::from_seed(cell.cipher, spec.seed);
  profile.granularity = cell.granularity;
  profile.scheme = pipeline::DeviceProfile::parse_scheme(cell.scheme);
  profile.backend = pipeline::DeviceProfile::parse_backend(spec.backend);

  fx.session = victim_session(profile, "campaign-victim", tr);
  sim::SimConfig config;
  config.max_cycles = kTrialBudget;
  fx.session->set_sim_config(config);
  {
    Span s(tr, "xform.transform");
    note_transform(s, fx.session->hardened());
    fx.base_image = fx.session->hardened().image;
  }
  {
    Span s(tr, sim_span_name(*fx.session));
    const auto& clean = fx.session->run();
    note_run(s, clean, cell.cipher);
    if (!clean.ok()) throw Error("campaign fixture: clean run failed");
    fx.clean_output = clean.output;
  }
  {
    Span s(tr, "verify.model");
    fx.model = verify::model_of(fx.session->hardened());
  }
  fx.device_spec = fx.session->device_spec();

  auto donor_profile = profile;
  donor_profile.omega_override = spec.donor_omega;
  auto donor = victim_session(donor_profile, "campaign-donor", tr);
  {
    Span s(tr, "xform.transform");
    note_transform(s, donor->hardened());
    fx.donor = donor->hardened().image;
  }

  fx.geometry.text_words = static_cast<std::uint32_t>(fx.base_image.text.size());
  fx.geometry.words_per_block = profile.policy.words_per_block;
  fx.geometry.text_base = fx.base_image.text_base;
  std::vector<std::uint32_t> targets;
  for (const auto& blk : fx.model.blocks)
    targets.insert(targets.end(), blk.jalr_targets.begin(), blk.jalr_targets.end());
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
  kb.field("config", remote::encode_config(fx.session->effective_sim_config()));
  kb.field("seed", spec.seed);
  fx.digest = cache::to_hex(kb.finish());
  return fx;
}

struct TrialOutcome {
  campaign::TrialClass cls = campaign::TrialClass::kHarmless;
  sim::ResetCause cause = sim::ResetCause::kNone;
  std::uint64_t insts = 0;
  std::string status;  ///< escapes only
  campaign::MutationRecord minimized;
  std::vector<verify::Rule> lint;
};

/// One trial, call for call as campaign::run_campaign runs it.
TrialOutcome replay_trial(const Fixture& fx, std::uint64_t job, const Rng& base,
                          Tracer& tr) {
  Span span(tr, "campaign.trial", static_cast<std::int64_t>(job));
  TrialOutcome out;
  const std::string sim_name = sim_span_name(*fx.session);
  const auto cipher = fx.session->profile().cipher;
  const auto execute = [&](const campaign::MutationRecord& record) {
    assembler::LoadImage image;
    sim::SimConfig config;
    {
      Span s(tr, "campaign.apply");
      image = fx.base_image;
      config = fx.base_config;
      campaign::apply(record, image, config, fx.ctx());
    }
    Span s(tr, sim_name);
    sim::RunResult run = fx.session->run_image(image, config);
    note_run(s, run, cipher);
    return run;
  };
  campaign::MutationRecord record;
  try {
    Rng rng = base.fork(job);
    {
      Span s(tr, "campaign.generate");
      record = campaign::generate_record(rng, fx.geometry);
    }
    const sim::RunResult run = execute(record);
    out.cls = campaign::classify(run, fx.clean_output);
    out.cause = run.reset.cause;
    out.insts = run.stats.insts;
    if (out.cls == campaign::TrialClass::kEscaped) {
      out.status = std::string(sim::to_string(run.status));
      {
        Span s(tr, "campaign.minimize");
        std::uint64_t runs = 0;
        out.minimized =
            campaign::minimize(record, [&](const campaign::MutationRecord& r) {
              ++runs;
              return campaign::classify(execute(r), fx.clean_output);
            });
        s.arg("runs", static_cast<double>(runs));
      }
      Span s(tr, "verify.lint");
      auto image = fx.base_image;
      sim::SimConfig config = fx.base_config;
      campaign::apply(record, image, config, fx.ctx());
      out.lint = verify::error_rules(verify::lint(fx.model, image, fx.device_spec));
    }
  } catch (const std::exception& e) {
    out.cls = campaign::TrialClass::kEscaped;
    out.status = std::string("error: ") + e.what();
    out.minimized = record;
  }
  span.arg("escaped", out.cls == campaign::TrialClass::kEscaped ? 1 : 0);
  return out;
}

/// Compare a replayed trial with the library's cached outcome for it.
std::string trial_mismatch(const TrialOutcome& o, const std::string& digest,
                           std::uint64_t job, cache::ResultStore& store) {
  const std::string at = "trial " + std::to_string(job) + ": ";
  cache::KeyBuilder kb("sofia-cache-key-v1/campaign-trial");
  kb.field("fixture", digest);
  kb.field("job", job);
  const auto payload = store.load(kb.finish(), "campaign-trial");
  if (!payload) return at + "no library outcome under the replayed fixture digest";
  const json::Value doc = json::parse(*payload);
  if (member(doc, "cls").as_string("cls") != campaign::to_string(o.cls))
    return at + "class differs";
  if (member(doc, "cause").as_string("cause") != sim::to_string(o.cause))
    return at + "reset cause differs";
  if (member(doc, "insts").as_uint("insts") != o.insts)
    return at + "retired instructions differ";
  if (o.cls != campaign::TrialClass::kEscaped) return {};
  const json::Value& esc = member(doc, "escape");
  if (member(esc, "status").as_string("status") != o.status)
    return at + "escape status differs";
  campaign::MutationRecord minimized;
  for (const auto& m : member(esc, "minimized").as_array("minimized"))
    minimized.push_back(campaign::mutation_from_json(m));
  if (minimized != o.minimized) return at + "minimized counterexample differs";
  std::vector<std::string> lint;
  for (const auto& r : member(esc, "lint").as_array("lint"))
    lint.push_back(r.as_string("lint"));
  std::vector<std::string> replayed;
  for (const auto rule : o.lint) replayed.emplace_back(verify::to_string(rule));
  if (lint != replayed) return at + "lint attribution differs";
  return {};
}

}  // namespace

ReplayResult replay_sweep(const std::vector<driver::JobSpec>& jobs,
                          cache::ResultStore* store,
                          const driver::SweepResult& reference, Tracer& tracer) {
  ReplayResult result;
  std::vector<JobOutcome> outcomes;
  outcomes.reserve(jobs.size());
  result.sessions.resize(jobs.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < jobs.size(); ++i)
    outcomes.push_back(replay_job(jobs[i], store, tracer, result.sessions[i]));
  result.wall_s = seconds_since(t0);

  if (store != nullptr) result.cache = store->stats();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok) ++result.errors;
    if (!result.faithful) continue;
    if (i >= reference.jobs.size()) {
      result.faithful = false;
      result.mismatch = "the library ran fewer jobs";
      continue;
    }
    result.mismatch = job_mismatch(outcomes[i], reference.jobs[i]);
    result.faithful = result.mismatch.empty();
  }
  return result;
}

ReplayResult replay_campaign(const campaign::CampaignSpec& spec,
                             const campaign::CampaignResult& reference,
                             cache::ResultStore& reference_store, Tracer& tracer) {
  if (!spec.workload.empty())
    throw Error("replay: only campaigns on the built-in victim are replayed");
  ReplayResult result;
  std::vector<Fixture> fixtures;
  std::vector<TrialOutcome> outcomes;
  const Rng base(spec.seed);
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& cell : spec.cells) fixtures.push_back(make_fixture(spec, cell, tracer));
  for (std::uint64_t g = 0; g < spec.total_jobs(); ++g)
    outcomes.push_back(replay_trial(fixtures[g / spec.jobs_per_cell], g, base, tracer));
  result.wall_s = seconds_since(t0);

  std::vector<std::array<std::uint64_t, 3>> tallies(spec.cells.size());
  for (std::uint64_t g = 0; g < outcomes.size(); ++g) {
    const TrialOutcome& o = outcomes[g];
    const std::size_t cell = g / spec.jobs_per_cell;
    ++tallies[cell][static_cast<std::size_t>(o.cls)];
    if (o.status.rfind("error:", 0) == 0) ++result.errors;
    if (result.faithful) {
      result.mismatch = trial_mismatch(o, fixtures[cell].digest, g, reference_store);
      result.faithful = result.mismatch.empty();
    }
  }
  for (std::size_t c = 0; c < spec.cells.size() && result.faithful; ++c) {
    const auto& ref = reference.cells.at(c);
    if (tallies[c][0] != ref.detected || tallies[c][1] != ref.harmless ||
        tallies[c][2] != ref.escaped) {
      result.faithful = false;
      result.mismatch = "cell " + ref.cell.label() + ": tallies differ";
    }
  }
  for (auto& fx : fixtures) result.sessions.push_back(std::move(fx.session));
  return result;
}

void run_probes(const std::vector<std::unique_ptr<pipeline::Pipeline>>& sessions,
                Tracer& tr) {
  // Cipher block costs, chained so no call can be skipped.
  constexpr std::uint64_t kBlocks = 20000;
  constexpr std::size_t kMacWords = 8;
  constexpr std::uint64_t kMacs = 2000;
  std::uint64_t sink = 0;
  for (const auto kind :
       {crypto::CipherKind::kRectangle80, crypto::CipherKind::kSpeck64_128}) {
    const auto keys = crypto::KeySet::example(kind);
    const auto cipher = crypto::make_cipher(kind, keys.k1);
    const bool rect = kind == crypto::CipherKind::kRectangle80;
    {
      Span s(tr, rect ? "crypto.rectangle80.encrypt" : "crypto.speck64.encrypt");
      std::uint64_t x = sink + 1;
      for (std::uint64_t i = 0; i < kBlocks; ++i) x = cipher->encrypt(x);
      sink ^= x;
      s.arg("blocks", kBlocks);
    }
    if (!rect) continue;
    {
      Span s(tr, "crypto.rectangle80.decrypt");
      std::uint64_t x = sink + 1;
      for (std::uint64_t i = 0; i < kBlocks; ++i) x = cipher->decrypt(x);
      sink ^= x;
      s.arg("blocks", kBlocks);
    }
    Span s(tr, "crypto.cbc_mac");
    std::vector<std::uint32_t> words(kMacWords, 0x9E3779B9u);
    for (std::uint64_t i = 0; i < kMacs; ++i) {
      words[i % kMacWords] ^= static_cast<std::uint32_t>(sink);
      sink ^= crypto::cbc_mac64(*cipher, words);
    }
    s.arg("words", kMacs * kMacWords);
  }
  g_probe_sink = sink;

  for (const auto& session : sessions) {
    pipeline::Pipeline& p = *session;
    const auto& h = p.hardened();
    {
      Span s(tr, "cfg.build");
      cfg::Cfg::build(h.normalized);
    }
    const verify::ProgramModel model = verify::model_of(h);
    {
      Span s(tr, "verify.dataflow");
      verify::dataflow::analyze(model);
    }

    const auto& profile = p.profile();
    const auto keys = profile.keys();
    const auto& blocks = h.layout.blocks();
    const std::uint32_t b = profile.policy.words_per_block;
    const std::uint32_t text_base_word = h.image.text_base / 4;
    std::vector<scheme::BlockInfo> infos;
    std::vector<std::vector<std::uint32_t>> insts;
    for (const auto& block : blocks) {
      scheme::BlockInfo info;
      info.is_mux = block.kind == xform::BlockKind::kMux;
      info.base_word = block.base_word;
      info.pred1_word = block.pred1_word;
      info.pred2_word = block.pred2_word;
      info.entry1_label = block.entry1_label;
      info.entry2_label = block.entry2_label;
      info.exit_label = block.exit_label;
      infos.push_back(info);
      std::vector<std::uint32_t> words;
      for (const auto& pi : block.insts) words.push_back(isa::encode(pi.inst));
      insts.push_back(std::move(words));
    }

    std::vector<std::vector<std::uint32_t>> sealed(blocks.size());
    {
      Span s(tr, "scheme.seal");
      const auto sealer = p.scheme().make_sealer(keys, profile.granularity);
      for (std::size_t i = 0; i < blocks.size(); ++i)
        sealed[i] = sealer->seal(infos[i], insts[i]);
      s.arg("blocks", static_cast<double>(blocks.size()));
    }
    std::vector<std::vector<std::uint32_t>> raw(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const auto first = h.image.text.begin() + (blocks[i].base_word - text_base_word);
      raw[i].assign(first, first + b);
      if (raw[i] != sealed[i])
        throw Error("probe: re-sealed block " + std::to_string(i) + " of " +
                    p.name() + " differs from the image");
    }
    std::uint64_t rejected = 0;
    {
      Span s(tr, "scheme.open");
      const auto opener =
          p.scheme().make_opener(keys, h.image.omega, profile.granularity);
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        const std::uint32_t offset = infos[i].is_mux ? 1 : 0;
        const scheme::DeviceBlock dev = opener->open(
            infos[i].base_word, infos[i].pred1_word,
            scheme::entry_path(offset, b), raw[i]);
        if (dev.verify_cause != sim::ResetCause::kNone) ++rejected;
      }
      s.arg("entries", static_cast<double>(blocks.size()));
    }
    if (rejected != 0)
      throw Error("probe: " + std::to_string(rejected) + " block(s) of " +
                  p.name() + " rejected at their sealed entry");
  }
}

std::map<std::string, double> layer_metrics(const std::vector<SpanRecord>& spans,
                                            const cache::Stats& cache) {
  const auto totals = summarize(spans);
  const auto get = [&](const std::string& name) -> const SpanTotals& {
    static const SpanTotals empty;
    const auto it = totals.find(name);
    return it == totals.end() ? empty : it->second;
  };
  const auto arg = [&](const std::string& name, const std::string& key) {
    const auto& args = get(name).args;
    const auto it = args.find(key);
    return it == args.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  const auto sim_sum = [&](const std::string& key) {
    return arg("sim.cycle.run", key) + arg("sim.functional.run", key);
  };

  std::map<std::string, double> m;
  // crypto
  const double rect_ns = ratio(get("crypto.rectangle80.encrypt").total_ms * 1e6,
                               arg("crypto.rectangle80.encrypt", "blocks"));
  const double speck_ns = ratio(get("crypto.speck64.encrypt").total_ms * 1e6,
                                arg("crypto.speck64.encrypt", "blocks"));
  m["crypto.rectangle80.encrypt_ns"] = rect_ns;
  m["crypto.rectangle80.decrypt_ns"] =
      ratio(get("crypto.rectangle80.decrypt").total_ms * 1e6,
            arg("crypto.rectangle80.decrypt", "blocks"));
  m["crypto.speck64.encrypt_ns"] = speck_ns;
  m["crypto.cbc_mac_ns_per_word"] = ratio(get("crypto.cbc_mac").total_ms * 1e6,
                                          arg("crypto.cbc_mac", "words"));
  m["crypto.ctr_ops"] = sim_sum("ctr_ops");
  m["crypto.cbc_ops"] = sim_sum("cbc_ops");
  // Replay wall: every top-level span except the probes.
  double replay_ms = 0;
  for (const auto& s : spans)
    if (s.parent < 0 && (s.name == "driver.job" || s.name == "campaign.trial" ||
                         s.name == "campaign.fixture"))
      replay_ms += static_cast<double>(s.duration_ns()) / 1e6;
  m["crypto.est_share"] = ratio(
      (sim_sum("rectangle80_ops") * rect_ns + sim_sum("speck64_ops") * speck_ns) / 1e6,
      replay_ms);
  // scheme
  m["scheme.open_us_per_entry"] =
      ratio(get("scheme.open").total_ms * 1e3, arg("scheme.open", "entries"));
  m["scheme.seal_us_per_block"] =
      ratio(get("scheme.seal").total_ms * 1e3, arg("scheme.seal", "blocks"));
  m["scheme.opens"] = sim_sum("blocks_fetched");
  // sim
  m["sim.cycle.run_ms"] = get("sim.cycle.run").total_ms;
  m["sim.cycle.ns_per_cycle"] =
      ratio(get("sim.cycle.run").total_ms * 1e6, arg("sim.cycle.run", "cycles"));
  m["sim.functional.run_ms"] = get("sim.functional.run").total_ms;
  m["sim.functional.ns_per_inst"] = ratio(get("sim.functional.run").total_ms * 1e6,
                                          arg("sim.functional.run", "insts"));
  m["sim.budget_exhausted"] = sim_sum("exhausted");
  for (const char* key : {"cycles", "insts", "icache_misses", "queue_empty_cycles",
                          "store_gate_stalls"})
    m[std::string("sim.") + key] = sim_sum(key);
  // toolchain
  m["workloads.generate_ms"] = get("workloads.generate").total_ms;
  m["assembler.assemble_ms"] = get("assembler.assemble").total_ms;
  m["cfg.build_us"] = ratio(get("cfg.build").total_ms * 1e3,
                            static_cast<double>(get("cfg.build").count));
  m["xform.transform_ms"] = get("xform.transform").total_ms;
  m["xform.blocks"] = arg("xform.transform", "blocks");
  m["xform.expansion"] = ratio(arg("xform.transform", "text_bytes_out"),
                               arg("xform.transform", "text_bytes_in"));
  // verify
  m["verify.model_ms"] = get("verify.model").total_ms;
  m["verify.dataflow_ms"] = get("verify.dataflow").total_ms;
  m["verify.lint_ms"] = get("verify.lint").total_ms;
  m["verify.error_findings"] = arg("verify.lint", "errors");
  // cache
  const auto per_call_us = [&](const std::string& name) {
    return ratio(get(name).total_ms * 1e3, static_cast<double>(get(name).count));
  };
  m["cache.key_us"] = per_call_us("cache.key");
  m["cache.load_hit_us"] = per_call_us("cache.load.hit");
  m["cache.load_miss_us"] = per_call_us("cache.load.miss");
  m["cache.store_us"] = per_call_us("cache.store");
  m["cache.hits"] = static_cast<double>(cache.hits);
  m["cache.misses"] = static_cast<double>(cache.misses);
  m["cache.stored"] = static_cast<double>(cache.stored);
  m["cache.failures"] = static_cast<double>(cache.failures);
  m["cache.hit_ratio"] = ratio(static_cast<double>(cache.hits),
                               static_cast<double>(cache.hits + cache.misses));
  // driver
  const auto& job = get("driver.job");
  m["driver.job_ms.p50"] = percentile(job.durations_ms, 50);
  m["driver.job_ms.p90"] = percentile(job.durations_ms, 90);
  m["driver.jobs"] = static_cast<double>(job.count);
  m["driver.self_ms"] = job.self_ms;
  m["driver.render_ms"] = get("driver.render").total_ms;
  // campaign
  const auto& trial = get("campaign.trial");
  m["campaign.fixture_ms"] = get("campaign.fixture").total_ms;
  m["campaign.trial_us.p50"] = percentile(trial.durations_ms, 50) * 1e3;
  m["campaign.trial_us.p99"] = percentile(trial.durations_ms, 99) * 1e3;
  m["campaign.trials"] = static_cast<double>(trial.count);
  m["campaign.generate_us"] = per_call_us("campaign.generate");
  m["campaign.apply_us"] = per_call_us("campaign.apply");
  m["campaign.minimize_ms"] = get("campaign.minimize").total_ms;
  m["campaign.minimize_runs"] = arg("campaign.minimize", "runs");
  m["campaign.escapes"] = arg("campaign.trial", "escaped");
  double trial_insts = 0;
  double trial_exhausted_insts = 0;
  const auto in_trial = [&](const SpanRecord& s) {
    for (int p = s.parent; p >= 0; p = spans[static_cast<std::size_t>(p)].parent)
      if (spans[static_cast<std::size_t>(p)].name == "campaign.trial") return true;
    return false;
  };
  for (const auto& s : spans) {
    if (s.name.rfind("sim.", 0) != 0 || !in_trial(s)) continue;
    const auto insts = s.args.find("insts");
    const auto wasted = s.args.find("exhausted_insts");
    if (insts != s.args.end()) trial_insts += insts->second;
    if (wasted != s.args.end()) trial_exhausted_insts += wasted->second;
  }
  m["campaign.budget_insts_share"] = ratio(trial_exhausted_insts, trial_insts);
  return m;
}

}  // namespace perfbench
