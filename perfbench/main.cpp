// sofia_perfbench — the repository benchmark.
//
//   sofia_perfbench --workload paper-sweep|attack-campaign|prefilter-resume
//                   --seed N --seconds S --trace 0|1 [--tiny] [--out DIR]
//
// --trace 0 sets the workload up (timed as setup_s, median of several
// set-ups), repeats its operation through the library's public entry point
// (driver::run_sweep or campaign::run_campaign, 2 worker threads) for S
// seconds, checks the outputs, and prints the end-to-end metrics. --trace 1
// covers every workload, whichever --workload names, so that every layer is
// measured: each runs the library once for reference, then its jobs and
// trials are replayed single-threaded through the public stage calls three
// times (untraced, traced, untraced). It prints the per-layer metrics over
// all the spans and writes the Chrome trace and a per-workload layer summary
// under --out. The last line of stdout is always one JSON object: correct,
// attempted, failed, metrics. A failed check exits 1. See
// perfbench/README.md.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "driver/sweep.hpp"
#include "replay.hpp"
#include "scheme/scheme.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "trace.hpp"
#include "workloads/workloads.hpp"

namespace fs = std::filesystem;
using namespace sofia;
using perfbench::Tracer;

namespace {

using Clock = std::chrono::steady_clock;

/// Worker threads for the library calls: the pool's parallel path, with
/// half of a 4-core machine left free.
constexpr unsigned kThreads = 2;
/// Timed set-up samples per run; setup_s is their median.
constexpr int kSetupSamples = 25;

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The metrics BENCHMARK.json declares in `section` ("end_to_end" or
/// "per_layer"): the one list of names and units the output follows.
std::vector<MetricDef> declared_metrics(const std::string& section) {
  std::ifstream in("BENCHMARK.json");
  if (!in) throw Error("BENCHMARK.json not found; run from the repository root");
  std::stringstream text;
  text << in.rdbuf();
  const json::Value doc = json::parse(text.str());
  const auto field = [](const json::Value& v, std::string_view key) {
    const auto* m = v.find(key);
    if (m == nullptr) throw Error("BENCHMARK.json: missing '" + std::string(key) + "'");
    return m;
  };
  std::vector<MetricDef> defs;
  for (const auto& m : field(doc, section)->as_array(section))
    defs.push_back({field(m, "name")->as_string("name"), field(m, "unit")->as_string("unit")});
  return defs;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  fs::path out = ".";
};

/// Attempted/failed operations and correctness checks of one run.
struct Tally {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void ops(std::uint64_t attempted_ops, std::uint64_t failed_ops) {
    attempted += attempted_ops;
    failed += failed_ops;
  }
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    correct = false;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
};

/// One timed repetition of the workload's operation.
struct Iteration {
  double seconds = 0;
  std::uint64_t ops = 0;
  std::uint64_t failures = 0;
  std::string digest;  ///< of the deterministic output, for the repeat check
};

/// The geometric means the paper reports, over (vanilla, SOFIA) pairs.
struct Design {
  double log_cycles = 0;
  double log_text = 0;
  std::uint64_t n = 0;

  void add(const pipeline::Measurement& m) {
    log_cycles += std::log(static_cast<double>(m.sofia_cycles) /
                           static_cast<double>(m.vanilla_cycles));
    log_text += std::log(m.size_ratio());
    ++n;
  }
  double overhead_pct() const {
    return n == 0 ? 0 : (std::exp(log_cycles / static_cast<double>(n)) - 1) * 100;
  }
  double size_ratio() const {
    return n == 0 ? 0 : std::exp(log_text / static_cast<double>(n));
  }
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string digest_hex(std::string_view text) { return support::sha256_hex(text); }

/// Digest of every job's full SimStats pair (the paper-sweep output print).
std::string stats_digest(const driver::SweepResult& r) {
  std::string text;
  const auto put = [&](std::uint64_t v) {
    text += ' ';
    text += std::to_string(v);
  };
  for (const auto& job : r.jobs) {
    put(job.job.index);
    text += job.ok ? " ok" : " failed";
    for (const auto* s : {&job.m.vanilla_stats, &job.m.sofia_stats})
      for (const std::uint64_t f :
           {s->cycles, s->insts, s->nops, s->loads, s->stores, s->branches,
            s->taken, s->icache_hits, s->icache_misses, s->fetch_words,
            s->mac_words, s->ctr_ops, s->cbc_ops, s->blocks_fetched,
            s->mac_verifications, s->store_gate_stalls, s->queue_empty_cycles,
            s->exec_stall_cycles})
        put(f);
    put(job.m.vanilla_text_bytes);
    put(job.m.sofia_text_bytes);
    text += '\n';
  }
  return digest_hex(text);
}

std::uint64_t failed_jobs(const driver::SweepResult& r) {
  std::uint64_t n = 0;
  for (const auto& job : r.jobs) n += (job.ok ? 0 : 1) + job.lint.size();
  return n;
}

/// Output of the traced run, filled by each workload.
struct TracedRun {
  std::vector<perfbench::ReplayResult> untraced;
  std::vector<perfbench::ReplayResult> traced;
  cache::Stats cache;
  std::map<std::string, double> extra;  ///< layer metrics known from the library run
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Input generation, fixtures and cache warming (timed as setup_s).
  virtual void setup() = 0;
  /// Set-ups per timed sample. Sub-millisecond set-ups are timed in
  /// batches, so one sample is not decided by a single interrupt.
  virtual int setup_batch() const { return 1; }
  /// Untimed preparation before each repetition.
  virtual void prepare() {}
  virtual Iteration iterate() = 0;
  /// Correctness checks after the timed phase; fills the design numbers.
  virtual void check(const std::vector<Iteration>& iterations, Tally& tally,
                     Design& design) = 0;
  /// Library reference run, then the untraced and traced replays.
  virtual TracedRun replay(Tracer& untraced, Tracer& traced, Tally& tally) = 0;
};

// ---- paper-sweep ------------------------------------------------------------

driver::SweepSpec scheme_matrix(const Options& o) {
  driver::SweepSpec spec = driver::matrix("scheme");
  if (o.tiny) spec = driver::smoke(spec);
  spec.base_seed = o.seed;
  return spec;
}

/// The paper's overhead experiment: every workload × scheme × cipher on the
/// cycle backend, fixed inputs per seed, no lint, no cache.
class PaperSweep : public Workload {
 public:
  explicit PaperSweep(const Options& o) : spec_(scheme_matrix(o)) {}

  /// Input generation: every workload's source and golden output.
  void setup() override {
    jobs_ = driver::expand_jobs(spec_);
    std::vector<std::string> inputs;
    std::set<std::pair<std::string, std::uint32_t>> seen;
    for (const auto& job : jobs_) {
      if (!seen.insert({job.workload, job.size}).second) continue;
      const auto& wl = workloads::workload(job.workload);
      inputs.push_back(wl.source(job.seed, job.size));
      inputs.push_back(wl.golden(job.seed, job.size));
    }
    if (first_inputs_.empty())
      first_inputs_ = std::move(inputs);
    else
      inputs_stable_ = inputs_stable_ && inputs == first_inputs_;
  }

  int setup_batch() const override { return 100; }

  Iteration iterate() override {
    Iteration it;
    const auto t0 = Clock::now();
    auto r = driver::run_sweep(spec_, kThreads);
    it.seconds = seconds_since(t0);
    it.ops = r.jobs.size();
    it.failures = failed_jobs(r);
    it.digest = stats_digest(r);
    if (!first_) first_ = std::move(r);
    return it;
  }

  void check(const std::vector<Iteration>& iterations, Tally& tally,
             Design& design) override {
    tally.check(inputs_stable_, "the seed alone determines the inputs");
    tally.check(first_ && first_->jobs.size() == jobs_.size(),
                "sweep ran every expanded job");
    tally.check(first_ && first_->all_ok(),
                "every job ok (measure() checks the golden model)");
    for (const auto& it : iterations)
      tally.check(it.digest == iterations.front().digest,
                  "per-job SimStats repeat across repetitions");
    std::cout << "simstats digest " << iterations.front().digest << "\n";
    for (const auto& job : first_->jobs)
      if (job.ok) design.add(job.m);
  }

  TracedRun replay(Tracer& untraced, Tracer& traced, Tally& tally) override {
    const auto reference = driver::run_sweep(spec_, kThreads);
    tally.ops(reference.jobs.size(), failed_jobs(reference));
    TracedRun out;
    for (Tracer* tracer : {&untraced, &traced, &untraced}) {
      auto r = perfbench::replay_sweep(jobs_, nullptr, reference, *tracer);
      (tracer == &traced ? out.traced : out.untraced).push_back(std::move(r));
    }
    perfbench::Span s(traced, "driver.render");
    driver::to_json(reference);
    return out;
  }

 private:
  driver::SweepSpec spec_;
  std::vector<driver::JobSpec> jobs_;
  std::vector<std::string> first_inputs_;
  bool inputs_stable_ = true;
  std::optional<driver::SweepResult> first_;
};

// ---- prefilter-resume -------------------------------------------------------

/// The lint-prefiltered scheme matrix on the functional backend, resumed
/// against a result cache pre-warmed with shard 0/2: every repetition sees
/// half hits and half misses.
class PrefilterResume : public Workload {
 public:
  PrefilterResume(const Options& o, fs::path work) : work_(std::move(work)) {
    spec_ = driver::with_backend(scheme_matrix(o), "functional");
    spec_.lint = true;
    spec_.vary_seed = true;
  }

  void setup() override {
    ++warms_;
    cache::ResultStore store(warm_dir(), warn());
    const auto r = driver::run_sweep(spec_, kThreads, {}, driver::ShardSpec{0, 2}, &store);
    warm_ok_ = warm_ok_ && r.all_ok() && store.stats().failures == 0;
  }

  void prepare() override {
    fresh_copy(run_dir());
    ::sync();  // write the copy back now, not during the timed sweep
  }

  Iteration iterate() override {
    Iteration it;
    cache::ResultStore store(run_dir(), warn());
    const auto t0 = Clock::now();
    const auto r = driver::run_sweep(spec_, kThreads, {}, {}, &store);
    it.seconds = seconds_since(t0);
    const auto stats = store.stats();
    it.ops = r.jobs.size();
    it.failures = failed_jobs(r) + stats.failures;
    it.digest = digest_hex(driver::to_json(r));
    hits_.push_back(stats.hits);
    misses_.push_back(stats.misses);
    return it;
  }

  void check(const std::vector<Iteration>& iterations, Tally& tally,
             Design& design) override {
    tally.check(warm_ok_, "shard 0/2 warmed the cache cleanly");
    const auto reference = driver::run_sweep(spec_, kThreads);
    const std::uint64_t n = reference.jobs.size();
    tally.check(reference.all_ok() && failed_jobs(reference) == 0,
                "every job ok with a clean lint report");
    const std::string expected = digest_hex(driver::to_json(reference));
    for (std::size_t i = 0; i < iterations.size(); ++i) {
      tally.check(iterations[i].digest == expected,
                  "half-warm document byte-identical to the uncached run");
      tally.check(hits_[i] == (n + 1) / 2 && misses_[i] == n / 2,
                  "half of the jobs hit the warm cache");
    }
    for (const auto& job : reference.jobs)
      if (job.ok) design.add(job.m);
  }

  TracedRun replay(Tracer& untraced, Tracer& traced, Tally& tally) override {
    const auto jobs = driver::expand_jobs(spec_);
    fresh_copy(run_dir());
    cache::ResultStore ref_store(run_dir(), warn());
    const auto reference = driver::run_sweep(spec_, kThreads, {}, {}, &ref_store);
    tally.ops(reference.jobs.size(), failed_jobs(reference) + ref_store.stats().failures);
    TracedRun out;
    for (Tracer* tracer : {&untraced, &traced, &untraced}) {
      fresh_copy(run_dir());
      cache::ResultStore store(run_dir(), warn());
      auto r = perfbench::replay_sweep(jobs, &store, reference, *tracer);
      (tracer == &traced ? out.traced : out.untraced).push_back(std::move(r));
    }
    out.cache = out.traced.back().cache;
    perfbench::Span s(traced, "driver.render");
    driver::to_json(reference);
    return out;
  }

 private:
  // Each set-up warms a directory of its own, so no deletion lands in the
  // timed set-up; the work directory goes when the run ends.
  fs::path warm_dir() const { return work_ / ("warm-" + std::to_string(warms_)); }
  fs::path run_dir() const { return work_ / "run"; }
  void fresh_copy(const fs::path& dir) const {
    fs::remove_all(dir);
    fs::copy(warm_dir(), dir, fs::copy_options::recursive);
  }
  static cache::WarnFn warn() {
    return [](const std::string& m) { std::cerr << "perfbench: " << m << "\n"; };
  }

  driver::SweepSpec spec_;
  fs::path work_;
  bool warm_ok_ = true;
  std::uint64_t warms_ = 0;
  std::vector<std::uint64_t> hits_;
  std::vector<std::uint64_t> misses_;
};

// ---- attack-campaign --------------------------------------------------------

/// The smoke campaign's authenticated cells (one per authenticated scheme)
/// on the built-in victim and the functional backend. The null cell runs
/// only in the traced replay: its cost is dominated by a handful of trials
/// that exhaust the 10 M-instruction budget, and their number swings with
/// the seed (11 to 15 per 1000 trials; 4.5 to 10 s per smoke campaign at 2
/// threads on a 4-vCPU VM).
class AttackCampaign : public Workload {
 public:
  AttackCampaign(const Options& o, fs::path work) : work_(std::move(work)) {
    spec_ = campaign::smoke(campaign::default_campaign());
    spec_.seed = o.seed;
    spec_.jobs_per_cell = o.tiny ? 25 : 1000;
    null_spec_ = spec_;
    null_spec_.name += "-null";
    null_spec_.jobs_per_cell = o.tiny ? 60 : 100;
    null_spec_.cells.clear();
    std::vector<campaign::CellSpec> authenticated;
    for (const auto& cell : spec_.cells) {
      if (scheme::get_scheme(cell.scheme).traits().authenticated)
        authenticated.push_back(cell);
      else
        null_spec_.cells.push_back(cell);
    }
    spec_.cells = std::move(authenticated);
  }

  /// The victim sealed under each cell's device profile, and its clean
  /// vanilla-vs-SOFIA measurement on the cycle backend.
  void setup() override {
    victim_.clear();
    for (const auto& cell : spec_.cells) {
      auto profile = pipeline::DeviceProfile::from_seed(cell.cipher, spec_.seed);
      profile.granularity = cell.granularity;
      profile.scheme = cell.scheme;
      auto p = pipeline::Pipeline::from_source(perfbench::kBuiltinVictim, profile,
                                               "campaign-victim");
      victim_.push_back(p.measure());
    }
  }

  int setup_batch() const override { return 10; }

  Iteration iterate() override {
    Iteration it;
    const auto t0 = Clock::now();
    const auto r = campaign::run_campaign(spec_, kThreads);
    it.seconds = seconds_since(t0);
    it.ops = r.jobs_run();
    for (const auto& cell : r.cells)
      for (const auto& e : cell.escapes)
        if (e.status.rfind("error:", 0) == 0) ++it.failures;
    it.digest = digest_hex(campaign::to_json(r));
    if (!first_clean_) first_clean_ = r.authenticated_clean();
    return it;
  }

  void check(const std::vector<Iteration>& iterations, Tally& tally,
             Design& design) override {
    tally.check(first_clean_.value_or(false),
                "zero escapes in the authenticated cells");
    for (const auto& it : iterations)
      tally.check(it.digest == iterations.front().digest,
                  "campaign document repeats across repetitions");
    for (const auto& m : victim_) design.add(m);
  }

  TracedRun replay(Tracer& untraced, Tracer& traced, Tally& tally) override {
    const fs::path dir = work_ / "campaign-reference";
    fs::remove_all(dir);
    cache::ResultStore store(dir);
    TracedRun out;
    double detected = 0, escaped = 0, latency = 0;
    for (const auto* spec : {&spec_, &null_spec_}) {
      const auto reference = campaign::run_campaign(*spec, kThreads, {}, {}, &store);
      tally.ops(reference.jobs_run(), 0);
      if (spec == &spec_) {
        tally.check(reference.authenticated_clean(),
                    "zero escapes in the authenticated cells");
        for (const auto& cell : reference.cells) {
          detected += static_cast<double>(cell.detected);
          escaped += static_cast<double>(cell.escaped);
          latency += static_cast<double>(cell.latency_total);
        }
      }
      for (Tracer* tracer : {&untraced, &traced, &untraced}) {
        auto r = perfbench::replay_campaign(*spec, reference, store, *tracer);
        (tracer == &traced ? out.traced : out.untraced).push_back(std::move(r));
      }
    }
    out.extra["campaign.detection_rate"] =
        detected + escaped == 0 ? 1.0 : detected / (detected + escaped);
    out.extra["campaign.detect_latency_insts"] = detected == 0 ? 0 : latency / detected;
    return out;
  }

 private:
  campaign::CampaignSpec spec_;
  campaign::CampaignSpec null_spec_;
  fs::path work_;
  std::vector<pipeline::Measurement> victim_;
  std::optional<bool> first_clean_;
};

// ---- output -----------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Tally& tally, const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values) {
  for (const auto& d : defs)
    if (values.count(d.name) == 0)
      throw Error("metric '" + d.name + "' is declared but not measured");
  for (const auto& [name, value] : values)
    if (std::none_of(defs.begin(), defs.end(),
                     [&](const MetricDef& d) { return d.name == name; }))
      throw Error("metric '" + name + "' is measured but not declared");
  for (const auto& d : defs)
    std::cout << "metric " << d.name << " = " << number(values.at(d.name)) << " "
              << d.unit << "\n";
  std::string line = "{\"correct\": ";
  line += tally.correct ? "true" : "false";
  line += ", \"attempted\": ";
  line += std::to_string(tally.attempted);
  line += ", \"failed\": ";
  line += std::to_string(tally.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (i != 0) line += ", ";
    line += '"';
    line += defs[i].name;
    line += "\": {\"value\": ";
    line += number(values.at(defs[i].name));
    line += ", \"unit\": \"";
    line += defs[i].unit;
    line += "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

/// Peak resident set of this process image. VmHWM rather than
/// getrusage(): ru_maxrss survives exec, so it would report the launcher's
/// peak when that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw Error("peak_rss_mb: no VmHWM in /proc/self/status");
}

int run_timed(Workload& w, const Options& o, const std::vector<MetricDef>& defs) {
  Tally tally;
  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    for (int j = 0; j < w.setup_batch(); ++j) w.setup();
    setups.push_back(seconds_since(t0) / w.setup_batch());
  }

  std::cout << "set-ups " << setups.size() << ", seconds quartiles "
            << number(perfbench::percentile(setups, 25)) << " " << number(median(setups))
            << " " << number(perfbench::percentile(setups, 75)) << "\n";

  std::vector<Iteration> iterations;
  std::vector<double> rates;
  double timed = 0;
  while (iterations.empty() || timed < o.seconds) {
    w.prepare();
    Iteration it = w.iterate();
    timed += it.seconds;
    tally.ops(it.ops, it.failures);
    rates.push_back(static_cast<double>(it.ops) / it.seconds);
    iterations.push_back(std::move(it));
  }
  std::cout << "repetitions " << iterations.size() << ", timed " << number(timed)
            << " s, jobs/s quartiles " << number(perfbench::percentile(rates, 25))
            << " " << number(median(rates)) << " "
            << number(perfbench::percentile(rates, 75)) << "\n";

  Design design;
  w.check(iterations, tally, design);
  std::map<std::string, double> values;
  values["setup_s"] = median(setups);
  values["jobs_per_s"] = median(rates);
  values["peak_rss_mb"] = peak_rss_mb();
  values["ok_rate"] =
      1.0 - static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
  values["sim_overhead_pct"] = design.overhead_pct();
  values["code_size_ratio"] = design.size_ratio();
  print_result(tally, defs, values);
  return tally.correct ? 0 : 1;
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw Error("cannot write " + path.string());
}

constexpr const char* kWorkloads[] = {"paper-sweep", "attack-campaign",
                                      "prefilter-resume"};

std::unique_ptr<Workload> make_workload(const std::string& name, const Options& o) {
  const fs::path work = o.out / "work" / name;
  if (name == "paper-sweep") return std::make_unique<PaperSweep>(o);
  if (name == "attack-campaign") return std::make_unique<AttackCampaign>(o, work);
  return std::make_unique<PrefilterResume>(o, work);
}

/// One workload's share of the traced run.
struct TracedPart {
  std::string workload;
  std::size_t first_span = 0;  ///< its spans are [first_span, end_span)
  std::size_t end_span = 0;
  double untraced_s = 0;  ///< mean of the untraced replays around the traced one
  double traced_s = 0;
  std::string mismatch;
  cache::Stats cache;
  std::map<std::string, double> extra;
};

/// Per-layer metrics of a span set: span-derived numbers, the library-run
/// numbers the workload supplied, and the tracing overhead and verdict.
std::map<std::string, double> part_metrics(const std::vector<perfbench::SpanRecord>& spans,
                                           const TracedPart& part) {
  auto values = perfbench::layer_metrics(spans, part.cache);
  values["campaign.detection_rate"] = 1.0;  // no tampering: vacuously defended
  values["campaign.detect_latency_insts"] = 0;
  for (const auto& [name, value] : part.extra) values[name] = value;
  values["trace.overhead_pct"] = (part.traced_s - part.untraced_s) / part.untraced_s * 100;
  values["trace.replay_valid"] = part.mismatch.empty() ? 1 : 0;
  return values;
}

/// Replay every workload, so each traced run measures every layer; the
/// printed metrics cover all of them and the summary file breaks them down
/// per workload.
int run_traced(const Options& o, const std::vector<MetricDef>& defs) {
  Tally tally;
  Tracer untraced(false);
  Tracer traced(true);
  std::vector<TracedPart> parts;
  for (const char* name : kWorkloads) {
    const auto w = make_workload(name, o);
    w->setup();
    TracedPart part;
    part.workload = name;
    part.first_span = traced.spans().size();
    TracedRun run = w->replay(untraced, traced, tally);
    std::vector<std::unique_ptr<pipeline::Pipeline>> sessions;
    std::uint64_t errors = 0;
    for (auto* list : {&run.untraced, &run.traced}) {
      for (auto& r : *list) {
        (list == &run.traced ? part.traced_s : part.untraced_s) += r.wall_s;
        errors += r.errors;
        if (!r.faithful && part.mismatch.empty()) part.mismatch = r.mismatch;
        for (auto& s : r.sessions)
          if (list == &run.traced) sessions.push_back(std::move(s));
      }
    }
    // Each traced replay is bracketed by two untraced ones.
    part.untraced_s *= static_cast<double>(run.traced.size()) /
                       static_cast<double>(run.untraced.size());
    perfbench::run_probes(sessions, traced);
    part.end_span = traced.spans().size();
    part.cache = run.cache;
    part.extra = run.extra;
    tally.check(errors == 0, std::string(name) + ": replayed jobs and trials completed");
    if (!part.mismatch.empty())
      std::cout << name << ": replay differs from the library run (" << part.mismatch
                << "): per-layer numbers are INVALID\n";
    parts.push_back(std::move(part));
  }

  TracedPart all;
  all.end_span = traced.spans().size();
  for (const auto& part : parts) {
    all.untraced_s += part.untraced_s;
    all.traced_s += part.traced_s;
    all.cache.hits += part.cache.hits;
    all.cache.misses += part.cache.misses;
    all.cache.stored += part.cache.stored;
    all.cache.failures += part.cache.failures;
    all.extra.insert(part.extra.begin(), part.extra.end());
    if (all.mismatch.empty() && !part.mismatch.empty())
      all.mismatch = part.workload + ": " + part.mismatch;
  }
  const auto values = part_metrics(traced.spans(), all);

  fs::create_directories(o.out);
  const std::string seed = "seed" + std::to_string(o.seed);
  write_file(o.out / ("trace-" + seed + ".json"), traced.chrome_json());
  json::Writer w(2);
  w.begin_object();
  w.member("seed", o.seed);
  w.member("valid", all.mismatch.empty());
  w.member("mismatch", all.mismatch);
  w.key("metrics").begin_object();
  for (const auto& [name, value] : values) w.member(name, value);
  w.end_object();
  w.key("workloads").begin_object();
  for (const auto& part : parts) {
    std::vector<perfbench::SpanRecord> spans(traced.spans().begin() + part.first_span,
                                             traced.spans().begin() + part.end_span);
    for (auto& s : spans)
      if (s.parent >= 0) s.parent -= static_cast<int>(part.first_span);
    w.key(part.workload).begin_object();
    w.key("layers").begin_object();
    for (const auto& [name, t] : perfbench::summarize(spans)) {
      w.key(name).begin_object();
      w.member("count", t.count);
      w.member("total_ms", t.total_ms);
      w.member("self_ms", t.self_ms);
      w.end_object();
    }
    w.end_object();
    w.key("metrics").begin_object();
    for (const auto& [name, value] : part_metrics(spans, part)) w.member(name, value);
    w.end_object();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  write_file(o.out / ("layers-" + seed + ".json"), w.str() + "\n");
  std::cout << "trace and per-workload layer summary written to " << o.out.string() << "\n";

  print_result(tally, defs, values);
  return tally.correct ? 0 : 1;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "sofia_perfbench: " << why
            << "\nusage: sofia_perfbench --workload paper-sweep|attack-campaign|"
               "prefilter-resume --seed N --seconds S --trace 0|1 [--tiny] "
               "[--out DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") o.workload = value;
      else if (arg == "--seed") o.seed = std::stoull(value);
      else if (arg == "--seconds") o.seconds = std::stod(value);
      else if (arg == "--trace") o.trace = std::stoi(value) != 0;
      else if (arg == "--out") o.out = value;
      else usage("unknown option " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
      std::end(kWorkloads))
    usage("unknown workload '" + o.workload + "'");
  const fs::path work = o.out / "work";
  try {
    const auto defs = declared_metrics(o.trace ? "per_layer" : "end_to_end");
    fs::remove_all(work);  // left over from an interrupted run
    const int rc =
        o.trace ? run_traced(o, defs) : run_timed(*make_workload(o.workload, o), o, defs);
    fs::remove_all(work);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "sofia_perfbench: " << e.what() << "\n";
    return 1;
  }
}
