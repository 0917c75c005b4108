#include "driver/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>

#include "assembler/image_io.hpp"
#include "remote/codec.hpp"
#include "scheme/scheme.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace sofia::driver {

namespace {

std::string bool01(bool b) { return b ? "1" : "0"; }

}  // namespace

std::string ConfigPoint::fingerprint() const {
  const auto& p = opts.profile;
  const auto& c = opts.config;
  std::string fp;
  fp += "gran=";
  fp += crypto::to_string(p.granularity);
  fp += " alt=" + bool01(c.cipher.alternate);
  fp += " pipe=" + bool01(c.cipher.pipelined);
  fp += " lat=" + std::to_string(c.cipher.latency);
  fp += " policy=" + std::to_string(p.policy.words_per_block) + "/" +
        std::to_string(p.policy.store_min_word);
  fp += " cipher=";
  fp += crypto::to_string(p.cipher);
  if (p.key_source == pipeline::KeySource::kSeed)
    fp += " keys=seed:" + std::to_string(p.key_seed);
  fp += " icache=" + std::to_string(c.icache.size_bytes) + "x" +
        std::to_string(c.icache.line_bytes);
  fp += " unroll=" + std::to_string(unroll_cycles());
  fp += " scheme=" + p.scheme;
  fp += " backend=" + p.backend;
  return fp;
}

ConfigPoint paper_default_config() {
  ConfigPoint p;
  p.name = "paper-default";
  return p;
}

std::vector<std::string> SweepSpec::resolved_workloads() const {
  if (!workloads.empty()) return workloads;
  std::vector<std::string> names;
  for (const auto& spec : workloads::all_workloads()) names.push_back(spec.name);
  return names;
}

std::vector<JobSpec> expand_jobs(const SweepSpec& spec) {
  std::vector<JobSpec> jobs;
  for (const auto& name : spec.resolved_workloads()) {
    const auto& wl = workloads::workload(name);  // throws for unknown names
    std::uint32_t size = spec.size_override ? spec.size_override : wl.default_size;
    size = std::max(4u, size / std::max(1u, spec.size_divisor));
    for (const auto& config : spec.configs) {
      JobSpec job;
      job.index = jobs.size();
      job.workload = name;
      job.size = size;
      job.seed = spec.vary_seed ? spec.base_seed + job.index : spec.base_seed;
      job.config = config;
      job.lint = spec.lint;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::vector<std::size_t> baseline_groups(const std::vector<JobSpec>& jobs) {
  using Key = std::tuple<std::string, std::uint64_t, std::uint32_t,
                         std::uint32_t, std::uint32_t, std::uint32_t,
                         std::string, std::vector<std::uint8_t>>;
  std::map<Key, std::size_t> first;
  std::vector<std::size_t> groups;
  groups.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& job = jobs[i];
    const MeasureOptions& opts = job.config.opts;
    Key key{job.workload,
            job.seed,
            job.size,
            opts.mem.text_base,
            opts.mem.data_base,
            opts.mem.stack_top,
            opts.profile.backend_fingerprint(),
            remote::encode_config(sim::vanilla_view(opts.config))};
    groups.push_back(first.emplace(std::move(key), i).first->second);
  }
  return groups;
}

bool SweepResult::all_ok() const {
  return std::all_of(jobs.begin(), jobs.end(),
                     [](const JobResult& r) { return r.ok; });
}

std::size_t SweepResult::cached_jobs() const {
  return static_cast<std::size_t>(
      std::count_if(jobs.begin(), jobs.end(),
                    [](const JobResult& r) { return r.from_cache; }));
}

namespace {

// ---- result-cache payload codec -------------------------------------------
//
// The cache stores the *semantic* outcome of a job (measurement numbers,
// or the error + lint findings), never the rendered sweep record: the same
// semantic cell can appear at different matrix indices and under different
// config labels, and the document renderer must stay the single source of
// formatting so cached and fresh runs are byte-identical.

using StatsField = std::uint64_t sim::SimStats::*;
constexpr std::pair<std::string_view, StatsField> kStatsFields[] = {
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

constexpr std::string_view kPayload = "cache payload";

void write_stats(const sim::SimStats& s, json::Writer& w) {
  w.begin_object();
  for (const auto& [name, field] : kStatsFields) w.member(name, s.*field);
  w.end_object();
}

sim::SimStats read_stats(const json::Value& v) {
  sim::SimStats s;
  for (const auto& [name, field] : kStatsFields)
    s.*field = v.at(name, kPayload).as_uint(name);
  return s;
}

void write_job(const JobResult& r, json::Writer& w) {
  w.member("ok", r.ok);
  if (!r.ok) {
    w.member("error", r.error);
    w.key("lint").begin_array();
    for (const auto& f : r.lint) verify::to_json(f, w);
    w.end_array();
    return;
  }
  w.key("m").begin_object();
  w.member("name", r.m.name);
  w.member("vanilla_text_bytes", r.m.vanilla_text_bytes);
  w.member("sofia_text_bytes", r.m.sofia_text_bytes);
  w.member("vanilla_cycles", r.m.vanilla_cycles);
  w.member("sofia_cycles", r.m.sofia_cycles);
  w.key("vanilla_stats");
  write_stats(r.m.vanilla_stats, w);
  w.key("sofia_stats");
  write_stats(r.m.sofia_stats, w);
  w.end_object();
}

void read_job(const json::Value& doc, JobResult& r) {
  r.ok = doc.at("ok", kPayload).as_bool("ok");
  if (!r.ok) {
    r.error = doc.at("error", kPayload).as_string("error");
    for (const auto& f : doc.at("lint", kPayload).as_array("lint"))
      r.lint.push_back(verify::finding_from_json(f));
    return;
  }
  const json::Value& m = doc.at("m", kPayload);
  r.m.name = m.at("name", kPayload).as_string("name");
  r.m.vanilla_text_bytes = static_cast<std::uint32_t>(
      m.at("vanilla_text_bytes", kPayload).as_uint("vanilla_text_bytes"));
  r.m.sofia_text_bytes = static_cast<std::uint32_t>(
      m.at("sofia_text_bytes", kPayload).as_uint("sofia_text_bytes"));
  r.m.vanilla_cycles =
      m.at("vanilla_cycles", kPayload).as_uint("vanilla_cycles");
  r.m.sofia_cycles = m.at("sofia_cycles", kPayload).as_uint("sofia_cycles");
  r.m.vanilla_stats = read_stats(m.at("vanilla_stats", kPayload));
  r.m.sofia_stats = read_stats(m.at("sofia_stats", kPayload));
}

constexpr PayloadCodec<JobResult> kJobCodec{
    "sweep-job", "sofia-cache-sweep-job-v1", write_job, read_job};

/// The content address of one job: everything that can change its result.
/// The hardened image bytes are the load-bearing field — they capture the
/// whole toolchain (assembler, transform, scheme, keys, layout); profile
/// fingerprint, canonical SimConfig encoding and the seed cover the device
/// and harness side.
cache::Key job_key(const JobSpec& job, pipeline::Pipeline& p) {
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

/// The vanilla runs of one sweep, one per baseline group.
class Baselines {
 public:
  explicit Baselines(const std::vector<JobSpec>& jobs)
      : group_(baseline_groups(jobs)), shared_(jobs.size()) {}

  /// Job `job`'s measurement in its session `p`. The first member of its
  /// group to get here runs the vanilla baseline in its own session; the
  /// others wait for it and reuse the result, or rethrow its failure.
  pipeline::Measurement measure(std::size_t job, pipeline::Pipeline& p) {
    Shared& shared = shared_[group_[job]];
    std::call_once(shared.once, [&] {
      ++runs_;
      try {
        shared.run = p.run_vanilla();
      } catch (const std::exception& e) {
        shared.error = e.what();
      }
    });
    if (!shared.run) throw Error(shared.error);
    return p.measure(*shared.run);
  }

  std::size_t runs() const { return runs_; }

 private:
  struct Shared {
    std::once_flag once;
    std::optional<sim::RunResult> run;  ///< empty when the run threw
    std::string error;                  ///< what() of that failure
  };

  std::vector<std::size_t> group_;  ///< baseline_groups(jobs)
  std::vector<Shared> shared_;      ///< by group (its first job's index)
  std::atomic<std::size_t> runs_{0};
};

/// The job body: the lint prefilter, then both device runs. Measurements
/// AND deterministic failures (functional mismatches, lint findings) are
/// outcomes, so every one of them is cacheable.
bool measure(const JobSpec& job, pipeline::Pipeline& p, Baselines& baselines,
             JobResult& r) {
  try {
    if (job.lint) {
      // Lint prefilter: verify the hardened image statically and fail the
      // job before either device run; the same session then measures, so
      // the transform is not repeated.
      const verify::Report report = p.lint();
      if (!report.clean()) {
        for (const auto& f : report.findings)
          if (f.severity == verify::Severity::kError) r.lint.push_back(f);
        r.error = "lint: " + std::to_string(r.lint.size()) +
                  " error-severity finding(s), first: " +
                  std::string(verify::to_string(r.lint.front().rule));
        return true;
      }
    }
    r.m = baselines.measure(job.index, p);
    r.ok = true;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return true;
}

JobResult run_job(const JobSpec& job, cache::ResultStore* store,
                  Baselines& baselines) {
  JobResult result;
  result.job = job;
  try {
    const auto& wl = workloads::workload(job.workload);
    auto p = pipeline::Pipeline::from_workload(wl, job.seed, job.size,
                                               job.config.opts.profile);
    p.set_sim_config(job.config.opts.config);
    p.set_memory_layout(job.config.opts.mem);
    // Key derivation runs the transform (cheap) but neither device run
    // (the expensive part a hit skips).
    cache_through(
        store, kJobCodec, job.index, [&] { return job_key(job, p); }, result,
        [&](JobResult& r) { return measure(job, p, baselines, r); });
  } catch (const std::exception& e) {
    // The job died before it had a key (e.g. a transform error): reported,
    // never cached.
    result.error = e.what();
  }
  return result;
}

}  // namespace

SweepResult run_sweep(const SweepSpec& spec, unsigned threads,
                      const ProgressFn& progress, ShardSpec shard,
                      cache::ResultStore* store) {
  const auto all_jobs = expand_jobs(spec);
  const auto slice = shard.slice(all_jobs.size());

  SweepResult result;
  result.sweep_name = spec.name;
  result.total_jobs = all_jobs.size();
  result.shard = shard;
  result.jobs.resize(slice.size());

  Baselines baselines(all_jobs);
  std::mutex progress_mutex;
  const PoolRun run = for_each_index(slice.size(), threads, [&](std::size_t i) {
    result.jobs[i] = run_job(all_jobs[slice[i]], store, baselines);
    if (progress) {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      progress(result.jobs[i]);
    }
  });
  result.threads_used = run.threads;
  result.wall_seconds = run.wall_seconds;
  result.vanilla_runs = baselines.runs();
  return result;
}

std::string to_json(const SweepResult& result) {
  const hw::HwModel model;
  json::Writer w(2);
  w.begin_object();
  w.member("schema", kSweepSchema);
  w.member("sweep", result.sweep_name);
  w.member("job_count", static_cast<std::uint64_t>(
                            result.total_jobs ? result.total_jobs
                                              : result.jobs.size()));
  if (!result.shard.is_whole()) w.member("shard", result.shard.to_string());
  w.key("jobs").begin_array();
  for (const auto& r : result.jobs) {
    w.begin_object();
    w.member("index", static_cast<std::uint64_t>(r.job.index));
    w.member("workload", r.job.workload);
    w.member("config", r.job.config.name);
    w.member("scheme", r.job.config.opts.profile.scheme);
    w.member("backend", r.job.config.opts.profile.backend);
    w.member("unroll", r.job.config.unroll_cycles());
    w.member("fingerprint", r.job.config.fingerprint());
    w.member("seed", r.job.seed);
    w.member("size", r.job.size);
    w.member("ok", r.ok);
    if (!r.ok) {
      w.member("error", r.error);
      if (!r.lint.empty()) {
        w.key("lint").begin_array();
        for (const auto& f : r.lint) verify::to_json(f, w);
        w.end_array();
      }
    } else {
      w.key("vanilla").begin_object();
      w.member("cycles", r.m.vanilla_cycles);
      w.member("text_bytes", r.m.vanilla_text_bytes);
      w.member("icache_hits", r.m.vanilla_stats.icache_hits);
      w.member("icache_misses", r.m.vanilla_stats.icache_misses);
      w.end_object();
      w.key("sofia").begin_object();
      w.member("cycles", r.m.sofia_cycles);
      w.member("text_bytes", r.m.sofia_text_bytes);
      w.member("insts", r.m.sofia_stats.insts);
      w.member("nops", r.m.sofia_stats.nops);
      w.member("ctr_ops", r.m.sofia_stats.ctr_ops);
      w.member("cbc_ops", r.m.sofia_stats.cbc_ops);
      w.member("icache_hits", r.m.sofia_stats.icache_hits);
      w.member("icache_misses", r.m.sofia_stats.icache_misses);
      w.member("store_gate_stalls", r.m.sofia_stats.store_gate_stalls);
      w.end_object();
      w.key("overhead").begin_object();
      w.member("size_ratio", r.m.size_ratio());
      w.member("cycles_pct", r.m.cycle_overhead_pct());
      w.member("time_pct", r.m.time_overhead_pct(model, r.job.config.unroll_cycles()));
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.document();
}

std::string merge_json(const std::vector<std::string>& documents) {
  if (documents.empty()) throw Error("merge: no input documents");

  std::string sweep_name;
  std::uint64_t total = 0;
  std::vector<json::Value> parsed;
  parsed.reserve(documents.size());
  for (std::size_t d = 0; d < documents.size(); ++d) {
    parsed.push_back(json::parse(documents[d]));
    const auto& doc = parsed.back();
    const auto label = "merge: document " + std::to_string(d);
    if (doc.at("schema", label).as_string("schema") != kSweepSchema)
      throw Error(label + " is not a " + std::string(kSweepSchema) +
                  " document");
    const auto& sweep = doc.at("sweep", label).as_string("sweep");
    const auto count = doc.at("job_count", label).as_uint("job_count");
    if (d == 0) {
      sweep_name = sweep;
      total = count;
    } else if (sweep != sweep_name) {
      throw Error(label + " is from sweep '" + sweep + "', expected '" +
                  sweep_name + "'");
    } else if (count != total) {
      throw Error(label + " disagrees on job_count");
    }
  }
  const auto by_index = collect_records(parsed, "jobs", total);

  // Re-emit the canonical unsharded document: identical member order and
  // number text to what to_json() writes, so merged == unsharded, byte for
  // byte.
  json::Writer w(2);
  w.begin_object();
  w.member("schema", kSweepSchema);
  w.member("sweep", sweep_name);
  w.member("job_count", total);
  w.key("jobs").begin_array();
  for (const auto* job : by_index) job->write(w);
  w.end_array();
  w.end_object();
  return w.document();
}

// ---------------------------------------------------------------------------
// Built-in matrices
// ---------------------------------------------------------------------------

namespace {

SweepSpec suite_overhead_matrix() {
  SweepSpec spec;
  spec.name = "suite-overhead";
  spec.configs = {paper_default_config()};
  return spec;
}

SweepSpec granularity_matrix() {
  SweepSpec spec;
  spec.name = "granularity";
  spec.size_divisor = 2;  // the ablation's historical working set
  const struct {
    const char* name;
    crypto::Granularity gran;
    bool alternate;
  } points[] = {
      {"per-pair alternating (paper)", crypto::Granularity::kPerPair, true},
      {"per-pair demand-driven", crypto::Granularity::kPerPair, false},
      {"per-word alternating (Alg.1)", crypto::Granularity::kPerWord, true},
      {"per-word demand-driven", crypto::Granularity::kPerWord, false},
  };
  for (const auto& p : points) {
    ConfigPoint c = paper_default_config();
    c.name = p.name;
    c.opts.profile.granularity = p.gran;
    c.opts.config.cipher.alternate = p.alternate;
    spec.configs.push_back(std::move(c));
  }
  return spec;
}

SweepSpec adpcm_matrix() {
  // §IV-B: ADPCM encoder + decoder under both readings of the cipher timing.
  SweepSpec spec;
  spec.name = "adpcm";
  spec.workloads = {"adpcm_encode", "adpcm_decode"};
  spec.size_override = 8192;
  for (const bool pipelined : {true, false}) {
    ConfigPoint c = paper_default_config();
    c.name = pipelined ? "pipelined" : "iterative";
    c.opts.config.cipher.pipelined = pipelined;
    spec.configs.push_back(std::move(c));
  }
  return spec;
}

SweepSpec blockpolicy_matrix() {
  // Figs. 5/6: the two block layouts the paper weighed, plus wider blocks.
  SweepSpec spec;
  spec.name = "blockpolicy";
  spec.size_divisor = 2;
  using xform::BlockPolicy;
  for (const auto& [name, policy] :
       {std::pair{"fig5: 6w/4i unrestricted", BlockPolicy::small_unrestricted()},
        std::pair{"fig6: 8w/6i stores>=w4 (paper)", BlockPolicy::paper_default()},
        std::pair{"ext: 12w/10i stores>=w4", BlockPolicy{12, 4}},
        std::pair{"ext: 16w/14i stores>=w4", BlockPolicy{16, 4}}}) {
    ConfigPoint c = paper_default_config();
    c.name = name;
    c.opts.profile.policy = policy;
    spec.configs.push_back(std::move(c));
  }
  return spec;
}

SweepSpec cipher_matrix() {
  SweepSpec spec;
  spec.name = "cipher";
  spec.size_divisor = 2;
  ConfigPoint rect = paper_default_config();
  rect.name = "RECTANGLE-80 (paper)";
  ConfigPoint speck = paper_default_config();
  speck.name = "SPECK-64/128";
  speck.opts.profile.cipher = crypto::CipherKind::kSpeck64_128;
  spec.configs = {rect, speck};
  return spec;
}

SweepSpec icache_matrix() {
  // SOFIA's ~3x text against cache size: the ADPCM encoder.
  SweepSpec spec;
  spec.name = "icache";
  spec.workloads = {"adpcm_encode"};
  spec.size_override = 4096;
  for (const std::uint32_t bytes : {128u, 256u, 512u, 1024u, 2048u, 4096u}) {
    ConfigPoint c = paper_default_config();
    c.name = std::to_string(bytes) + " B I-cache";
    c.opts.config.icache.size_bytes = bytes;
    spec.configs.push_back(std::move(c));
  }
  return spec;
}

SweepSpec unroll_matrix() {
  SweepSpec spec;
  spec.name = "unroll";
  spec.workloads = {"adpcm_encode"};
  spec.size_override = 4096;
  for (const int unroll : {1, 2, 4, 7, 13, 26}) {
    ConfigPoint c = paper_default_config();
    c.name = std::to_string(unroll) + "-cycle cipher" +
             (unroll == 2 ? " (paper)" : "");
    c.opts.config.cipher.latency = static_cast<std::uint32_t>(unroll);
    // Deep (many-cycle) cipher datapaths are iterative, not pipelined.
    c.opts.config.cipher.pipelined = unroll <= 2;
    spec.configs.push_back(std::move(c));
  }
  return spec;
}

SweepSpec scheme_matrix() {
  SweepSpec spec;
  spec.name = "scheme";
  spec.size_divisor = 2;
  for (const auto& entry : scheme::scheme_registry()) {
    for (const auto kind :
         {crypto::CipherKind::kRectangle80, crypto::CipherKind::kSpeck64_128}) {
      ConfigPoint c = paper_default_config();
      c.name = std::string(entry.name()) + " / " +
               std::string(crypto::to_string(kind)) +
               (entry.name() == scheme::kDefaultScheme &&
                        kind == crypto::CipherKind::kRectangle80
                    ? " (paper)"
                    : "");
      c.opts.profile.scheme = std::string(entry.name());
      c.opts.profile.cipher = kind;
      spec.configs.push_back(std::move(c));
    }
  }
  return spec;
}

using MatrixFn = SweepSpec (*)();

const std::vector<std::pair<std::string, MatrixFn>>& matrix_registry() {
  static const std::vector<std::pair<std::string, MatrixFn>> registry = {
      {"suite-overhead", suite_overhead_matrix},
      {"adpcm", adpcm_matrix},
      {"granularity", granularity_matrix},
      {"blockpolicy", blockpolicy_matrix},
      {"cipher", cipher_matrix},
      {"scheme", scheme_matrix},
      {"icache", icache_matrix},
      {"unroll", unroll_matrix},
  };
  return registry;
}

}  // namespace

const std::vector<std::string>& matrix_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& [name, fn] : matrix_registry()) out.push_back(name);
    return out;
  }();
  return names;
}

SweepSpec matrix(std::string_view name) {
  for (const auto& [reg_name, fn] : matrix_registry())
    if (reg_name == name) return fn();
  throw Error("unknown sweep matrix '" + std::string(name) +
              "' (see sofia_sweep --list)");
}

SweepSpec smoke(SweepSpec spec) {
  spec.name += "-smoke";
  spec.workloads = {"fib", "crc32", "bitcount"};
  spec.size_override = 0;
  spec.size_divisor = 16;
  return spec;
}

SweepSpec with_backend(SweepSpec spec, std::string_view backend) {
  const std::string validated = pipeline::DeviceProfile::parse_backend(backend);
  for (auto& config : spec.configs) config.opts.profile.backend = validated;
  return spec;
}

SweepSpec with_scheme(SweepSpec spec, std::string_view scheme) {
  const std::string validated = pipeline::DeviceProfile::parse_scheme(scheme);
  for (auto& config : spec.configs) config.opts.profile.scheme = validated;
  return spec;
}

}  // namespace sofia::driver
