// Tests for the parallel experiment-sweep driver (src/driver/sweep.hpp),
// the job engine it shares with the campaign (src/driver/jobs.hpp) and the
// JSON writer it emits results through. The load-bearing property is
// determinism: the same SweepSpec must produce byte-identical JSON for any
// thread count.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "assembler/image_io.hpp"
#include "campaign/campaign.hpp"
#include "driver/sweep.hpp"
#include "driver/tables.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace sofia {
namespace {

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

TEST(Json, CompactObjectAndArray) {
  json::Writer w(-1);
  w.begin_object();
  w.member("name", "sweep");
  w.member("count", 3);
  w.key("items").begin_array().value(1).value(2).end_array();
  w.member("ok", true);
  w.key("none").null();
  w.end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"sweep","count":3,"items":[1,2],"ok":true,"none":null})");
}

TEST(Json, PrettyPrintIndents) {
  json::Writer w(2);
  w.begin_object();
  w.member("a", 1);
  w.key("b").begin_array().value(2).end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(Json, EmptyContainersStayOnOneLine) {
  json::Writer w(2);
  w.begin_object();
  w.key("jobs").begin_array().end_array();
  w.key("meta").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\n  \"jobs\": [],\n  \"meta\": {}\n}");
}

TEST(Json, EscapesStrings) {
  EXPECT_EQ(json::escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(json::escape(std::string_view("\x01", 1)), "\\u0001");
  json::Writer w(-1);
  w.begin_array().value("per-pair \"alt\"").end_array();
  EXPECT_EQ(w.str(), R"(["per-pair \"alt\""])");
}

TEST(Json, NumberFormatting) {
  json::Writer w(-1);
  w.begin_array();
  w.value(static_cast<std::int64_t>(-7));
  w.value(static_cast<std::uint64_t>(18446744073709551615ull));
  w.value(2.5);
  w.value(std::nan(""));  // NaN -> null (JSON has no non-finite numbers)
  w.end_array();
  EXPECT_EQ(w.str(), "[-7,18446744073709551615,2.5,null]");
}

// ---------------------------------------------------------------------------
// Matrix expansion
// ---------------------------------------------------------------------------

TEST(Sweep, ExpansionIsWorkloadMajorWithIndexSeeds) {
  driver::SweepSpec spec;
  spec.name = "t";
  spec.workloads = {"fib", "crc32"};
  spec.configs = {driver::paper_default_config(), driver::paper_default_config()};
  spec.configs[1].name = "second";
  spec.base_seed = 100;
  spec.vary_seed = true;
  const auto jobs = driver::expand_jobs(spec);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].workload, "fib");
  EXPECT_EQ(jobs[1].workload, "fib");
  EXPECT_EQ(jobs[1].config.name, "second");
  EXPECT_EQ(jobs[2].workload, "crc32");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].seed, 100 + i);  // pure function of the job index
  }
}

TEST(Sweep, FixedSeedModeUsesBaseSeedEverywhere) {
  driver::SweepSpec spec;
  spec.workloads = {"fib", "crc32"};
  spec.configs = {driver::paper_default_config()};
  spec.base_seed = 7;
  spec.vary_seed = false;
  for (const auto& job : driver::expand_jobs(spec)) EXPECT_EQ(job.seed, 7u);
}

TEST(Sweep, EmptyWorkloadListMeansAllRegistered) {
  driver::SweepSpec spec;
  spec.configs = {driver::paper_default_config()};
  EXPECT_EQ(driver::expand_jobs(spec).size(),
            workloads::all_workloads().size());
}

TEST(Sweep, UnknownWorkloadThrows) {
  driver::SweepSpec spec;
  spec.workloads = {"no_such_workload"};
  spec.configs = {driver::paper_default_config()};
  EXPECT_THROW(driver::expand_jobs(spec), Error);
}

TEST(Sweep, UnknownMatrixThrows) {
  EXPECT_THROW(driver::matrix("no-such-matrix"), Error);
}

TEST(Sweep, BuiltInMatricesExpand) {
  for (const auto& name : driver::matrix_names()) {
    const auto spec = driver::matrix(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(driver::expand_jobs(spec).empty()) << name;
  }
}

TEST(Sweep, FingerprintNamesEverySweptAxis) {
  auto config = driver::paper_default_config();
  config.opts.config.cipher.alternate = false;
  config.opts.config.cipher.latency = 7;
  const auto fp = config.fingerprint();
  EXPECT_NE(fp.find("gran=per-pair"), std::string::npos) << fp;
  EXPECT_NE(fp.find("alt=0"), std::string::npos) << fp;
  EXPECT_NE(fp.find("policy=8/4"), std::string::npos) << fp;
  EXPECT_NE(fp.find("cipher=RECTANGLE-80"), std::string::npos) << fp;
  EXPECT_NE(fp.find("icache=4096x32"), std::string::npos) << fp;
  EXPECT_NE(fp.find("unroll=7"), std::string::npos) << fp;
  // The scheme axis is named unconditionally, even at its default.
  EXPECT_NE(fp.find("scheme=sofia-cbcmac"), std::string::npos) << fp;
}

// Every built-in matrix starts from this cell: the paper's device.
TEST(Measure, DefaultOptionsArePairGranular) {
  EXPECT_EQ(driver::paper_default_config().opts.profile.granularity,
            crypto::Granularity::kPerPair);
}

TEST(Measure, DefaultProfileIsThePaperDevice) {
  const auto config = driver::paper_default_config();
  const auto& profile = config.opts.profile;
  EXPECT_EQ(profile.cipher, crypto::CipherKind::kRectangle80);
  EXPECT_EQ(profile.key_source, pipeline::KeySource::kExample);
  EXPECT_EQ(profile.policy, xform::BlockPolicy::paper_default());
  EXPECT_EQ(config.unroll_cycles(), 2);
}

// One vanilla-vs-SOFIA measurement at the paper's device, set up the way a
// sweep job applies its cell's options.
pipeline::Measurement measure_at_paper_default(
    const workloads::WorkloadSpec& spec, std::uint64_t seed, std::uint32_t size) {
  const auto opts = driver::paper_default_config().opts;
  auto p = pipeline::Pipeline::from_workload(spec, seed, size, opts.profile);
  p.set_sim_config(opts.config);
  p.set_memory_layout(opts.mem);
  return p.measure();
}

TEST(Measure, WorkloadRoundTrip) {
  const auto m = measure_at_paper_default(workloads::workload("fib"), 1, 8);
  EXPECT_EQ(m.name, "fib");
  // SOFIA always costs something: bigger text, more cycles.
  EXPECT_GT(m.sofia_text_bytes, m.vanilla_text_bytes);
  EXPECT_GT(m.sofia_cycles, m.vanilla_cycles);
  EXPECT_GT(m.cycle_overhead_pct(), 0.0);
}

TEST(Measure, MismatchThrows) {
  // A golden model that cannot match the program output must throw rather
  // than report numbers for a broken run.
  auto spec = workloads::workload("fib");
  spec.golden = [](std::uint64_t, std::uint32_t) { return std::string("bogus"); };
  EXPECT_THROW(measure_at_paper_default(spec, 1, 8), Error);
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

driver::SweepSpec small_spec() {
  driver::SweepSpec spec;
  spec.name = "unit";
  spec.workloads = {"fib", "crc32", "bitcount"};
  spec.size_divisor = 16;
  spec.vary_seed = true;
  auto demand = driver::paper_default_config();
  demand.name = "demand-driven";
  demand.opts.config.cipher.alternate = false;
  spec.configs = {driver::paper_default_config(), demand};
  return spec;
}

TEST(Sweep, RunsJobsAndMeasures) {
  const auto result = driver::run_sweep(small_spec(), 2);
  ASSERT_EQ(result.jobs.size(), 6u);
  EXPECT_TRUE(result.all_ok());
  for (const auto& job : result.jobs) {
    EXPECT_GT(job.m.sofia_cycles, job.m.vanilla_cycles);
    EXPECT_GT(job.m.sofia_text_bytes, job.m.vanilla_text_bytes);
  }
}

TEST(Sweep, JobFailureIsCapturedNotThrown) {
  auto spec = small_spec();
  spec.workloads = {"fib"};
  // An unusable block geometry makes the transform throw inside the job.
  spec.configs[0].opts.profile.policy.words_per_block = 3;
  spec.configs.resize(1);
  const auto result = driver::run_sweep(spec, 1);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_FALSE(result.jobs[0].ok);
  EXPECT_FALSE(result.jobs[0].error.empty());
  EXPECT_FALSE(result.all_ok());
}

TEST(Sweep, JsonIsByteIdenticalAcrossThreadCounts) {
  // The satellite requirement: --threads 1 and --threads 8 must emit
  // byte-identical documents. Seeds are fixed at expansion time and
  // results land in job-index order, so interleaving cannot show through.
  const auto spec = small_spec();
  const auto one = driver::run_sweep(spec, 1);
  const auto eight = driver::run_sweep(spec, 8);
  EXPECT_EQ(one.threads_used, 1u);
  EXPECT_EQ(driver::to_json(one), driver::to_json(eight));
}

TEST(Sweep, JsonIsByteIdenticalAcrossThreadCountsWithSharedBaselines) {
  // The fixed-seed twin of the test above: both configs of a workload
  // share one vanilla run, whichever thread gets to it first.
  auto spec = small_spec();
  spec.vary_seed = false;
  const auto one = driver::run_sweep(spec, 1);
  const auto eight = driver::run_sweep(spec, 8);
  EXPECT_EQ(one.vanilla_runs, 3u);
  EXPECT_EQ(eight.vanilla_runs, 3u);
  EXPECT_EQ(driver::to_json(one), driver::to_json(eight));
}

// ---------------------------------------------------------------------------
// Vanilla baseline groups
// ---------------------------------------------------------------------------

/// A job measured on its own session, without the driver.
driver::JobResult measure_alone(const driver::JobSpec& job) {
  driver::JobResult r;
  r.job = job;
  try {
    auto p = pipeline::Pipeline::from_workload(job.workload, job.seed, job.size,
                                               job.config.opts.profile);
    p.set_sim_config(job.config.opts.config);
    p.set_memory_layout(job.config.opts.mem);
    r.m = p.measure();
    r.ok = true;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

/// The document of `spec` with every job measured alone.
std::string unshared_document(const driver::SweepSpec& spec) {
  driver::SweepResult result;
  result.sweep_name = spec.name;
  for (const auto& job : driver::expand_jobs(spec))
    result.jobs.push_back(measure_alone(job));
  result.total_jobs = result.jobs.size();
  return driver::to_json(result);
}

std::size_t group_count(const std::vector<std::size_t>& groups) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < groups.size(); ++i) n += groups[i] == i ? 1 : 0;
  return n;
}

TEST(Baselines, GroupCountsPerMatrix) {
  const auto groups = [](const driver::SweepSpec& spec) {
    return group_count(driver::baseline_groups(driver::expand_jobs(spec)));
  };
  // Scheme, cipher and cipher timing are invisible to a vanilla run...
  for (const char* name : {"scheme", "unroll", "adpcm"})
    EXPECT_EQ(groups(driver::smoke(driver::matrix(name))), 3u) << name;
  // ...the I-cache is not.
  const auto icache = driver::smoke(driver::matrix("icache"));
  EXPECT_EQ(groups(icache), 18u);
  EXPECT_EQ(driver::expand_jobs(icache).size(), 18u);
  // Per-job seeds give every job a program of its own.
  const auto varied = small_spec();
  EXPECT_EQ(groups(varied), driver::expand_jobs(varied).size());
}

TEST(Baselines, EveryMatrixSharesOnlyIdenticalBaselines) {
  // For every built-in matrix: members of a group link byte-identical
  // vanilla images, the sweep runs one vanilla simulation per group, and
  // its document equals the one every job measured alone produces.
  for (const auto& name : driver::matrix_names()) {
    const auto spec = driver::smoke(driver::matrix(name));
    const auto jobs = driver::expand_jobs(spec);
    const auto groups = driver::baseline_groups(jobs);
    ASSERT_EQ(groups.size(), jobs.size()) << name;
    std::vector<std::string> images;
    for (const auto& job : jobs) {
      auto p = pipeline::Pipeline::from_workload(job.workload, job.seed,
                                                 job.size, job.config.opts.profile);
      p.set_memory_layout(job.config.opts.mem);
      const auto bytes = assembler::serialize_image(p.vanilla_image());
      images.emplace_back(bytes.begin(), bytes.end());
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_LE(groups[i], i) << name;
      EXPECT_EQ(images[i], images[groups[i]]) << name << " job " << i;
    }
    const auto result = driver::run_sweep(spec, 4);
    EXPECT_TRUE(result.all_ok()) << name;
    EXPECT_EQ(result.vanilla_runs, group_count(groups)) << name;
    EXPECT_EQ(driver::to_json(result), unshared_document(spec)) << name;
  }
}

/// Two cells per workload that differ only in what a vanilla run ignores.
driver::SweepSpec shared_spec() {
  auto spec = small_spec();
  spec.vary_seed = false;
  spec.configs[1].opts.profile.cipher = crypto::CipherKind::kSpeck64_128;
  return spec;
}

/// A failing spec's records, document and run counts.
void expect_shared_failure(const driver::SweepSpec& spec,
                           const std::string& error_part) {
  const auto one = driver::run_sweep(spec, 1);
  const auto eight = driver::run_sweep(spec, 8);
  EXPECT_EQ(one.vanilla_runs, 3u);
  EXPECT_EQ(eight.vanilla_runs, 3u);
  const auto jobs = driver::expand_jobs(spec);
  ASSERT_EQ(one.jobs.size(), jobs.size());
  for (const auto& r : one.jobs) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, measure_alone(jobs[r.job.index]).error);
    EXPECT_NE(r.error.find(error_part), std::string::npos) << r.error;
  }
  const auto doc = driver::to_json(one);
  EXPECT_EQ(doc, unshared_document(spec));
  EXPECT_EQ(doc, driver::to_json(eight));
  EXPECT_EQ(driver::merge_json(
                {driver::to_json(driver::run_sweep(spec, 2, {}, {0, 2})),
                 driver::to_json(driver::run_sweep(spec, 2, {}, {1, 2}))}),
            doc);
}

TEST(Sweep, SharedBaselineFailureFailsEveryMember) {
  // A budget too small for any program: the shared vanilla run fails, and
  // every member reports it exactly as a job measured alone does.
  auto spec = shared_spec();
  for (auto& config : spec.configs) config.opts.config.max_cycles = 20;
  expect_shared_failure(spec, "vanilla run failed (max-cycles)");
}

TEST(Sweep, SharedBaselineThrowIsRethrownToEveryMember) {
  // An I-cache geometry the machine rejects: the shared vanilla run
  // throws once, and every member keeps the thrown error's text.
  auto spec = shared_spec();
  for (auto& config : spec.configs) config.opts.config.icache.size_bytes = 1000;
  expect_shared_failure(spec, "run-vanilla: icache:");
}

TEST(Sweep, JsonCarriesSchemaAndPerJobRecords) {
  auto spec = small_spec();
  spec.workloads = {"fib"};
  spec.configs.resize(1);
  const auto doc = driver::to_json(driver::run_sweep(spec, 1));
  EXPECT_NE(doc.find("\"schema\": \"sofia-sweep-v6\""), std::string::npos);
  EXPECT_NE(doc.find("\"sweep\": \"unit\""), std::string::npos);
  EXPECT_NE(doc.find("\"index\": 0"), std::string::npos);
  EXPECT_NE(doc.find("\"workload\": \"fib\""), std::string::npos);
  EXPECT_NE(doc.find("\"scheme\": \"sofia-cbcmac\""), std::string::npos);
  EXPECT_NE(doc.find("\"backend\": \"cycle\""), std::string::npos);
  EXPECT_NE(doc.find("\"fingerprint\": \"gran=per-pair"), std::string::npos);
  EXPECT_NE(doc.find("\"cycles\""), std::string::npos);
  EXPECT_NE(doc.find("\"text_bytes\""), std::string::npos);
  EXPECT_NE(doc.find("\"cycles_pct\""), std::string::npos);
  // Wall-clock and thread count must NOT leak into the document.
  EXPECT_EQ(doc.find("wall"), std::string::npos);
  EXPECT_EQ(doc.find("threads"), std::string::npos);
}

TEST(Sweep, ProgressCallbackFiresOncePerJob) {
  auto spec = small_spec();
  int calls = 0;
  const auto result =
      driver::run_sweep(spec, 4, [&](const driver::JobResult&) { ++calls; });
  EXPECT_EQ(calls, static_cast<int>(result.jobs.size()));
}

// ---------------------------------------------------------------------------
// Sharding + merge (the multi-machine path)
// ---------------------------------------------------------------------------

TEST(Json, ParseRoundTripsWriterOutput) {
  json::Writer w(2);
  w.begin_object();
  w.member("s", "a\"b\n");
  w.member("i", static_cast<std::uint64_t>(42));
  w.member("f", 2.537);
  w.member("t", true);
  w.key("n").null();
  w.key("arr").begin_array().value(1).value("x").end_array();
  w.key("obj").begin_object().member("k", 7).end_object();
  w.end_object();
  const std::string doc = w.str();

  const auto v = json::parse(doc);
  ASSERT_EQ(v.kind, json::Value::Kind::kObject);
  EXPECT_EQ(v.find("s")->string, "a\"b\n");
  EXPECT_EQ(v.find("i")->as_uint("i"), 42u);
  EXPECT_EQ(v.find("f")->number, "2.537");  // verbatim source token
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_EQ(v.find("n")->kind, json::Value::Kind::kNull);
  ASSERT_EQ(v.find("arr")->array.size(), 2u);

  // Re-emission through a Writer is byte-identical: the property the
  // sharded-sweep merge rests on.
  json::Writer w2(2);
  v.write(w2);
  EXPECT_EQ(w2.str(), doc);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), Error);
  EXPECT_THROW(json::parse("{} trailing"), Error);
  EXPECT_THROW(json::parse("{\"a\": }"), Error);
  EXPECT_THROW(json::parse("\"unterminated"), Error);
}

TEST(Json, RequiredMembersAndTypedScalars) {
  const auto v = json::parse(
      R"({"n":-7,"u":7,"f":1.5,"e":1e3,"b":true,"s":"x"})");
  EXPECT_EQ(v.at("n", "doc").as_int("n"), -7);
  EXPECT_EQ(v.at("u", "doc").as_int("u"), 7);
  EXPECT_TRUE(v.at("b", "doc").as_bool("b"));
  // Integer accessors read the whole token: no silent truncation to 1.
  EXPECT_THROW(v.at("f", "doc").as_int("f"), Error);
  EXPECT_THROW(v.at("e", "doc").as_int("e"), Error);
  EXPECT_THROW(v.at("f", "doc").as_uint("f"), Error);
  EXPECT_THROW(v.at("s", "doc").as_int("s"), Error);
  EXPECT_THROW(v.at("n", "doc").as_bool("n"), Error);
  EXPECT_THROW(json::parse("99999999999999999999").as_int("big"), Error);
  try {
    (void)v.at("absent", "merge: document 3");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "merge: document 3 is missing 'absent'");
  }
}

TEST(Shard, ParseAndValidate) {
  const auto s = driver::ShardSpec::parse("1/3");
  EXPECT_EQ(s.index, 1u);
  EXPECT_EQ(s.count, 3u);
  EXPECT_FALSE(s.is_whole());
  EXPECT_TRUE(driver::ShardSpec{}.is_whole());
  EXPECT_THROW(driver::ShardSpec::parse("3/3"), Error);   // index out of range
  EXPECT_THROW(driver::ShardSpec::parse("0/0"), Error);   // zero shards
  EXPECT_THROW(driver::ShardSpec::parse("nope"), Error);  // no slash
  EXPECT_THROW(driver::ShardSpec::parse("1/x"), Error);   // non-decimal
}

TEST(Shard, RunsOnlyTheSlice) {
  const auto spec = small_spec();  // 6 jobs
  const auto shard0 = driver::run_sweep(spec, 1, {}, {0, 2});
  const auto shard1 = driver::run_sweep(spec, 1, {}, {1, 2});
  EXPECT_EQ(shard0.total_jobs, 6u);
  ASSERT_EQ(shard0.jobs.size(), 3u);
  ASSERT_EQ(shard1.jobs.size(), 3u);
  for (const auto& job : shard0.jobs) EXPECT_EQ(job.job.index % 2, 0u);
  for (const auto& job : shard1.jobs) EXPECT_EQ(job.job.index % 2, 1u);
}

TEST(Shard, SliceIsTheIndicesCongruentToK) {
  const driver::ShardSpec shard{1, 3};
  EXPECT_EQ(shard.slice(8), (std::vector<std::uint64_t>{1, 4, 7}));
  EXPECT_TRUE(shard.owns(4));
  EXPECT_FALSE(shard.owns(5));
  EXPECT_EQ(shard.to_string(), "1/3");
  EXPECT_EQ(driver::ShardSpec{}.slice(3), (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_TRUE(driver::ShardSpec({2, 4}).slice(2).empty());
}

TEST(Shard, ShardedDocumentsCarryTheShardMember) {
  const auto doc = driver::to_json(driver::run_sweep(small_spec(), 1, {}, {1, 2}));
  EXPECT_NE(doc.find("\"shard\": \"1/2\""), std::string::npos);
  EXPECT_NE(doc.find("\"job_count\": 6"), std::string::npos);  // full matrix
}

TEST(Shard, MergeReassemblesTheCanonicalDocumentByteIdentically) {
  // The ROADMAP contract: shard(2) + merge == unsharded, byte for byte.
  const auto spec = small_spec();
  const auto unsharded = driver::to_json(driver::run_sweep(spec, 1));
  const auto doc0 = driver::to_json(driver::run_sweep(spec, 2, {}, {0, 2}));
  const auto doc1 = driver::to_json(driver::run_sweep(spec, 2, {}, {1, 2}));
  EXPECT_NE(doc0, unsharded);
  // Merge order must not matter.
  EXPECT_EQ(driver::merge_json({doc0, doc1}), unsharded);
  EXPECT_EQ(driver::merge_json({doc1, doc0}), unsharded);
  // Merging the unsharded document is the identity.
  EXPECT_EQ(driver::merge_json({unsharded}), unsharded);
}

// ---------------------------------------------------------------------------
// Hostile --merge inputs, through both engines' merges
// ---------------------------------------------------------------------------

json::Value& member(json::Value& v, std::string_view key) {
  for (auto& [k, m] : v.object)
    if (k == key) return m;
  throw Error("test: no member '" + std::string(key) + "'");
}

/// One engine's merge and a valid two-shard split to forge from.
struct MergeEngine {
  const char* name;
  const char* records;  ///< the records member: "jobs" or "trials"
  const char* header;   ///< a string header member the shards must agree on
  std::string (*merge)(const std::vector<std::string>&);
  std::string whole;                ///< the unsharded document
  std::vector<std::string> shards;  ///< shards 0/2 and 1/2
};

using Docs = std::vector<json::Value>;

std::vector<json::Value>& records_of(json::Value& doc,
                                     const MergeEngine& engine) {
  return member(doc, engine.records).array;
}

/// The first record of any document whose "cls" is `cls` (campaign only).
json::Value& trial_of_class(Docs& docs, const char* cls) {
  for (auto& doc : docs)
    for (auto& trial : member(doc, "trials").array)
      if (member(trial, "cls").string == cls) return trial;
  throw Error(std::string("test: no ") + cls + " trial in the shards");
}

/// Both engines, each with a valid two-shard split; built once per process.
const std::vector<MergeEngine>& merge_engines() {
  static const std::vector<MergeEngine> engines = [] {
    auto campaign_spec = campaign::smoke(campaign::default_campaign());
    std::erase_if(campaign_spec.cells, [](const campaign::CellSpec& cell) {
      return cell.scheme != "sofia-cbcmac" && cell.scheme != "null";
    });
    campaign_spec.jobs_per_cell = 30;  // the null cell leaks in both shards
    const auto sweep_spec = small_spec();
    return std::vector<MergeEngine>{
        {"sweep", "jobs", "sweep", driver::merge_json,
         driver::to_json(driver::run_sweep(sweep_spec, 2)),
         {driver::to_json(driver::run_sweep(sweep_spec, 2, {}, {0, 2})),
          driver::to_json(driver::run_sweep(sweep_spec, 2, {}, {1, 2}))}},
        {"campaign", "trials", "campaign", campaign::merge_json,
         campaign::to_json(campaign::run_campaign(campaign_spec, 2)),
         {campaign::to_json(campaign::run_campaign(campaign_spec, 2, {},
                                                   driver::ShardSpec{0, 2})),
          campaign::to_json(campaign::run_campaign(campaign_spec, 2, {},
                                                   driver::ShardSpec{1, 2}))}},
    };
  }();
  return engines;
}

/// The test that runs a row of the hostile-input table.
enum class Rows { kGapsAndMismatches, kJobCounts, kCampaignOnly };

void set_job_count(Docs& docs, const std::string& count) {
  for (auto& doc : docs) member(doc, "job_count").number = count;
}

/// Each case forges the parsed shards (docs[0] is 0/2, docs[1] is 1/2).
/// kCampaignOnly rows forge what only a campaign document carries or
/// checks; the others run through both merges. `expect` is a substring of
/// every engine's error.
struct HostileCase {
  Rows rows;
  const char* what;
  const char* expect;
  void (*forge)(Docs&, const MergeEngine&);
};

const HostileCase kHostileCases[] = {
    {Rows::kGapsAndMismatches, "no documents", "no input documents",
     [](Docs& docs, const MergeEngine&) { docs.clear(); }},
    {Rows::kGapsAndMismatches, "a missing shard", "missing",
     [](Docs& docs, const MergeEngine&) { docs.pop_back(); }},
    {Rows::kGapsAndMismatches, "a shard given twice", "more than once",
     [](Docs& docs, const MergeEngine&) { docs[1] = docs[0]; }},
    {Rows::kGapsAndMismatches, "a duplicate index", "more than once",
     [](Docs& docs, const MergeEngine& e) {
       records_of(docs[1], e).push_back(records_of(docs[0], e).front());
     }},
    {Rows::kGapsAndMismatches, "a missing index", "missing",
     [](Docs& docs, const MergeEngine& e) {
       records_of(docs[1], e).pop_back();
     }},
    {Rows::kGapsAndMismatches, "an out-of-range index", "out of range",
     [](Docs& docs, const MergeEngine& e) {
       auto& last = records_of(docs[1], e).back();
       member(last, "index").number = member(docs[1], "job_count").number;
     }},
    {Rows::kGapsAndMismatches, "a record without an index", "missing 'index'",
     [](Docs& docs, const MergeEngine& e) {
       std::erase_if(records_of(docs[0], e).front().object,
                     [](const auto& m) { return m.first == "index"; });
     }},
    {Rows::kGapsAndMismatches, "a header mismatch", "document 1",
     [](Docs& docs, const MergeEngine& e) {
       member(docs[1], e.header).string = "other";
     }},
    {Rows::kGapsAndMismatches, "not a document of the engine", "schema",
     [](Docs& docs, const MergeEngine&) { docs[1] = json::parse("{}"); }},
    {Rows::kJobCounts, "a job_count of 10^15", "1000000000000000",
     [](Docs& docs, const MergeEngine&) {
       set_job_count(docs, "1000000000000000");
     }},
    {Rows::kJobCounts, "a job_count of -1", "job_count",
     [](Docs& docs, const MergeEngine&) { set_job_count(docs, "-1"); }},
    {Rows::kJobCounts, "a job_count below the records", "job_count",
     [](Docs& docs, const MergeEngine&) { set_job_count(docs, "4"); }},
    {Rows::kCampaignOnly, "an unsharded document (no trials)",
     "missing 'trials'",
     [](Docs& docs, const MergeEngine& e) { docs = {json::parse(e.whole)}; }},
    {Rows::kCampaignOnly, "jobs_per_cell past 32 bits", "out of range",
     [](Docs& docs, const MergeEngine&) {
       for (auto& doc : docs)
         member(doc, "jobs_per_cell").number = "4294967326";  // 2^32 + 30
     }},
    {Rows::kCampaignOnly, "an unknown trial class", "unknown trial class",
     [](Docs& docs, const MergeEngine& e) {
       member(records_of(docs[0], e).front(), "cls").string = "lucky";
     }},
    {Rows::kCampaignOnly, "an unknown reset cause", "unknown reset cause",
     [](Docs& docs, const MergeEngine&) {
       member(trial_of_class(docs, "detected"), "cause").string = "cosmic-ray";
     }},
    {Rows::kCampaignOnly, "a detection without a reset cause",
     "detected trial",
     [](Docs& docs, const MergeEngine&) {
       member(trial_of_class(docs, "detected"), "cause").string = "none";
     }},
    {Rows::kCampaignOnly, "a trial past the instruction budget",
     "past the trial budget",
     [](Docs& docs, const MergeEngine&) {
       member(trial_of_class(docs, "detected"), "insts").number =
           "18446744073709551615";
     }},
    {Rows::kCampaignOnly, "an escape whose job is not its index", "names job",
     [](Docs& docs, const MergeEngine&) {
       auto& escape = member(trial_of_class(docs, "escaped"), "escape");
       auto& job = member(escape, "job").number;
       job = std::to_string(std::stoull(job) + 1);
     }},
};

/// Every engine the rows apply to merges its unforged shards, in either
/// order, into the unsharded bytes, and refuses each forged copy.
void expect_merges_reject(Rows rows) {
  for (const auto& engine : merge_engines()) {
    if (rows == Rows::kCampaignOnly &&
        std::string_view(engine.name) != "campaign")
      continue;
    ASSERT_EQ(engine.merge(engine.shards), engine.whole) << engine.name;
    ASSERT_EQ(engine.merge({engine.shards[1], engine.shards[0]}), engine.whole)
        << engine.name;
    for (const auto& c : kHostileCases) {
      if (c.rows != rows) continue;
      Docs docs;
      for (const auto& text : engine.shards) docs.push_back(json::parse(text));
      c.forge(docs, engine);
      std::vector<std::string> texts;
      for (const auto& doc : docs) {
        json::Writer w(2);
        doc.write(w);
        texts.push_back(w.document());
      }
      try {
        engine.merge(texts);
        ADD_FAILURE() << engine.name << " merged " << c.what;
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(c.expect), std::string::npos)
            << engine.name << ", " << c.what << ": " << e.what();
      }
    }
  }
}

TEST(Shard, MergeRejectsGapsOverlapsAndMismatches) {
  expect_merges_reject(Rows::kGapsAndMismatches);
  EXPECT_THROW(driver::merge_json({"not json"}), Error);
  EXPECT_THROW(campaign::merge_json({"not json"}), Error);
}

TEST(Shard, MergeRejectsJobCountsTheRecordsCannotFill) {
  expect_merges_reject(Rows::kJobCounts);
  // A job_count of 0 with no records is a complete, empty sweep.
  EXPECT_EQ(driver::merge_json({"{\"schema\":\"sofia-sweep-v6\",\"sweep\":"
                                "\"x\",\"job_count\":0,\"jobs\":[]}"}),
            "{\n  \"schema\": \"sofia-sweep-v6\",\n  \"sweep\": \"x\",\n"
            "  \"job_count\": 0,\n  \"jobs\": []\n}\n");
}

// The campaign rows of the table; the suite name matches the other
// campaign document tests in test_campaign.cpp.
TEST(CampaignJson, MergeRejectsBadInputs) {
  expect_merges_reject(Rows::kCampaignOnly);
}

// ---------------------------------------------------------------------------
// Cache-through policy (driver::cache_through), on a toy outcome
// ---------------------------------------------------------------------------

struct Toy {
  std::uint64_t value = 0;
  bool from_cache = false;
};

void write_toy(const Toy& t, json::Writer& w) { w.member("value", t.value); }
void read_toy(const json::Value& v, Toy& t) {
  t.value = v.at("value", "toy payload").as_uint("value");
}

constexpr driver::PayloadCodec<Toy> kToyCodec{"toy-job", "toy-v1", write_toy,
                                              read_toy};

class CacheThrough : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "sofia-jobs-test-XXXXXX")
            .string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
    store_ = std::make_unique<cache::ResultStore>(
        dir_, [this](const std::string& m) { warnings_.push_back(m); });
  }
  void TearDown() override {
    store_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Run job 7 through the policy; the body yields `value` and reports it
  /// cacheable or not.
  Toy run(std::uint64_t value, bool cacheable) {
    Toy out;
    driver::cache_through(
        store_.get(), kToyCodec, 7, [&] { return key_; }, out, [&](Toy& t) {
          ++body_runs_;
          t.value = value;
          return cacheable;
        });
    return out;
  }

  std::filesystem::path dir_;
  std::unique_ptr<cache::ResultStore> store_;
  std::vector<std::string> warnings_;
  cache::Key key_ = cache::KeyBuilder("test").field("job", 7).finish();
  int body_runs_ = 0;
};

TEST_F(CacheThrough, AHitSkipsTheJobBody) {
  EXPECT_FALSE(run(41, true).from_cache);
  const Toy hit = run(99, true);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.value, 41u);
  EXPECT_EQ(body_runs_, 1);
  EXPECT_EQ(*store_->load(key_, "toy-job"), R"({"schema":"toy-v1","value":41})");
  EXPECT_TRUE(warnings_.empty());
}

TEST_F(CacheThrough, NonCacheableOutcomesAreNotStored) {
  // The campaign's trial-error path: the outcome is returned, never stored,
  // so the next run executes again.
  EXPECT_EQ(run(5, false).value, 5u);
  EXPECT_EQ(store_->stats().stored, 0u);
  EXPECT_FALSE(run(6, false).from_cache);
  EXPECT_EQ(body_runs_, 2);
}

TEST_F(CacheThrough, UndecodableEntryWarnsReexecutesAndIsOverwritten) {
  for (const std::string payload :
       {R"({"schema":"toy-v0","value":1})", R"({"schema":"toy-v1"})",
        R"({"schema":"toy-v1","value":1.5})", "not json"}) {
    warnings_.clear();
    store_->store(key_, "toy-job", payload);
    const Toy fresh = run(12, true);
    EXPECT_FALSE(fresh.from_cache) << payload;
    EXPECT_EQ(fresh.value, 12u) << payload;
    ASSERT_EQ(warnings_.size(), 1u) << payload;
    EXPECT_EQ(warnings_[0],
              "cache: toy-job payload for job 7 is undecodable; re-executing");
    EXPECT_EQ(*store_->load(key_, "toy-job"),
              R"({"schema":"toy-v1","value":12})");
  }
}

TEST_F(CacheThrough, NoStoreNeverDerivesAKey) {
  Toy out;
  bool keyed = false;
  driver::cache_through(
      static_cast<cache::ResultStore*>(nullptr), kToyCodec, 0,
      [&] {
        keyed = true;
        return key_;
      },
      out, [](Toy& t) {
        t.value = 3;
        return true;
      });
  EXPECT_FALSE(keyed);
  EXPECT_EQ(out.value, 3u);
}

TEST(Sweep, SmokeShrinksButKeepsConfigs) {
  const auto full = driver::matrix("granularity");
  const auto small = driver::smoke(full);
  EXPECT_EQ(small.configs.size(), full.configs.size());
  EXPECT_LT(driver::expand_jobs(small).size(),
            driver::expand_jobs(full).size());
  const auto result = driver::run_sweep(small, 2);
  EXPECT_TRUE(result.all_ok());
}

// ---------------------------------------------------------------------------
// Paper tables rendered from the document (driver/tables.hpp)
// ---------------------------------------------------------------------------

/// One successful job record of a hand-written sofia-sweep-v6 document.
struct Record {
  std::string workload = "fib";
  std::string config = "paper";
  int unroll = 2;
  std::uint64_t vanilla_cycles = 1000;
  std::uint64_t vanilla_text = 100;
  std::uint64_t vanilla_hits = 99;
  std::uint64_t vanilla_misses = 1;
  std::uint64_t sofia_cycles = 1500;
  std::uint64_t sofia_text = 250;
  std::uint64_t insts = 200;
  std::uint64_t nops = 50;
  std::uint64_t ctr_ops = 10;
  std::uint64_t sofia_hits = 90;
  std::uint64_t sofia_misses = 10;
  std::uint64_t gate_stalls = 3;
};

/// A compact v6 document. It carries no "overhead" doubles: the tables are
/// computed from the integer counts alone.
std::string v6_document(const std::string& sweep,
                        const std::vector<Record>& records) {
  json::Writer w(-1);
  w.begin_object();
  w.member("schema", "sofia-sweep-v6");
  w.member("sweep", sweep);
  w.member("job_count", static_cast<std::uint64_t>(records.size()));
  w.key("jobs").begin_array();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    w.begin_object();
    w.member("index", static_cast<std::uint64_t>(i));
    w.member("workload", r.workload);
    w.member("config", r.config);
    w.member("unroll", r.unroll);
    w.member("ok", true);
    w.key("vanilla").begin_object();
    w.member("cycles", r.vanilla_cycles);
    w.member("text_bytes", r.vanilla_text);
    w.member("icache_hits", r.vanilla_hits);
    w.member("icache_misses", r.vanilla_misses);
    w.end_object();
    w.key("sofia").begin_object();
    w.member("cycles", r.sofia_cycles);
    w.member("text_bytes", r.sofia_text);
    w.member("insts", r.insts);
    w.member("nops", r.nops);
    w.member("ctr_ops", r.ctr_ops);
    w.member("icache_hits", r.sofia_hits);
    w.member("icache_misses", r.sofia_misses);
    w.member("store_gate_stalls", r.gate_stalls);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

/// What print_table writes for `document`.
std::string render(const std::string& document) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(std::tmpfile(),
                                                           &std::fclose);
  driver::print_table(json::parse(document), out.get());
  std::rewind(out.get());
  std::string table;
  for (int c = std::fgetc(out.get()); c != EOF; c = std::fgetc(out.get()))
    table += static_cast<char>(c);
  return table;
}

void expect_contains(const std::string& table, const std::string& cell) {
  EXPECT_NE(table.find(cell), std::string::npos)
      << "missing '" << cell << "' in:\n" << table;
}

TEST(Tables, SuiteOverheadRowsAndMean) {
  Record fib;
  Record crc = fib;
  crc.workload = "crc32";
  crc.sofia_cycles = 3000;  // +200%
  crc.sofia_text = 300;     // 3.00x
  crc.nops = 100;           // 50% pads
  const auto table = render(v6_document("suite-overhead", {fib, crc}));
  expect_contains(table, "fib                 100      250   2.50 |       1000"
                         "       1500   +50.0% |");
  expect_contains(table, "|  25.0%");
  expect_contains(table, "+200.0% |");
  expect_contains(table, "|  50.0%");
  expect_contains(table, "mean                               2.75 |");
  expect_contains(table, "+125.0% |");
}

TEST(Tables, AdpcmCombinesEachEngine) {
  Record enc;
  enc.workload = "adpcm_encode";
  enc.config = "pipelined";
  Record dec = enc;
  dec.workload = "adpcm_decode";
  dec.sofia_cycles = 2500;
  Record enc_it = enc;
  enc_it.config = "iterative";
  enc_it.sofia_cycles = 4000;
  Record dec_it = dec;
  dec_it.config = "iterative";
  dec_it.sofia_cycles = 4000;
  // Document order is workload-major, as expand_jobs writes it.
  const auto table =
      render(v6_document("adpcm", {enc, enc_it, dec, dec_it}));
  expect_contains(table, "adpcm_encode (pipelined)");
  expect_contains(table, "adpcm_decode (iterative)");
  // 2000 vanilla cycles vs 4000 (pipelined) and 8000 (iterative).
  expect_contains(table, "combined (pipelined)                                  "
                         "|        2000        4000 +100.0% |");
  expect_contains(table, "|        2000        8000 +300.0% |");
  EXPECT_LT(table.find("combined (pipelined)"),
            table.find("adpcm_encode (iterative)"));
}

TEST(Tables, GranularityAggregatesPerConfig) {
  Record pair_fib;
  pair_fib.config = "per-pair";
  Record pair_crc = pair_fib;
  pair_crc.workload = "crc32";
  Record word_fib = pair_fib;
  word_fib.config = "per-word";
  word_fib.sofia_cycles = 2000;
  word_fib.ctr_ops = 25;
  Record word_crc = word_fib;
  word_crc.workload = "crc32";
  const auto table = render(
      v6_document("granularity", {pair_fib, word_fib, pair_crc, word_crc}));
  expect_contains(table, "per-pair                           |         3000"
                         "       +50.0% |         20");
  expect_contains(table, "per-word                           |         4000"
                         "      +100.0% |         50");
}

TEST(Tables, BlockPolicyMeansRatiosAndSumsStalls) {
  Record a;
  a.config = "fig6";
  Record b = a;
  b.workload = "crc32";
  b.sofia_text = 300;   // ratios 2.5 and 3.0 -> 2.75
  b.nops = 150;         // pads 25% and 75% -> 50%
  b.gate_stalls = 7;    // 3 + 7
  const auto table = render(v6_document("blockpolicy", {a, b}));
  expect_contains(table, "fig6                                 2.75    50.0% |"
                         "       3000   +50.0% |         10");
}

TEST(Tables, IcacheMissRatesFromHitsAndMisses) {
  Record r;
  r.config = "128 B I-cache";
  const auto table = render(v6_document("icache", {r}));
  expect_contains(table, "fib            128 B I-cache  |       1000    1.00% |"
                         "       1500   10.00% |   +50.0%");
}

TEST(Tables, UnrollComparesWithThePaperPoint) {
  Record one;
  one.config = "1-cycle cipher";
  one.unroll = 1;
  Record two = one;
  two.config = "2-cycle cipher (paper)";
  two.unroll = 2;
  const auto table = render(v6_document("unroll", {one, two}));
  // Area and clock come from the hardware model for each unroll factor.
  expect_contains(table, "fib            vanilla                    5889     "
                         "92.3 |       1000 |");
  expect_contains(table, "SOFIA  1-cycle             8851     26.0 |");
  expect_contains(table, "SOFIA  2-cycle (paper)     7551     50.1 |       "
                         "1500 |      0.030      +0.0% |     1.28");
  // Same cycles at half the clock: the 1-cycle design is slower.
  expect_contains(table, "+92.5% |     1.50");
}

TEST(Tables, SmokeSuffixIsStrippedAndTablelessMatricesRenderNothing) {
  const std::vector<Record> records(1);
  EXPECT_EQ(render(v6_document("suite-overhead-smoke", records)),
            render(v6_document("suite-overhead", records)));
  EXPECT_FALSE(render(v6_document("suite-overhead", records)).empty());
  EXPECT_EQ(render(v6_document("cipher", records)), "");
  EXPECT_EQ(render(v6_document("scheme-smoke", records)), "");
  EXPECT_EQ(render(v6_document("no-such-sweep", records)), "");
}

TEST(Tables, FailedJobsRenderANoticeNotPartialNumbers) {
  const std::string doc =
      "{\"schema\":\"sofia-sweep-v6\",\"sweep\":\"granularity\","
      "\"job_count\":1,\"jobs\":[{\"index\":0,\"ok\":false,"
      "\"error\":\"boom\"}]}";
  EXPECT_EQ(render(doc),
            "\ngranularity table not rendered: 1 of 1 job(s) failed\n");
}

TEST(Tables, MalformedRecordsThrowErrorsNamingTheMember) {
  const std::string good = v6_document("icache", {Record{}});
  ASSERT_FALSE(render(good).empty());
  const auto expect_error = [&](const std::string& from, const std::string& to,
                                const std::string& member) {
    std::string doc = good;
    const auto at = doc.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    doc.replace(at, from.size(), to);
    try {
      render(doc);
      FAIL() << "expected an error naming " << member;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(member), std::string::npos)
          << e.what();
    }
  };
  expect_error("\"insts\":200,", "", "insts");                  // missing
  expect_error("\"insts\":200", "\"insts\":\"200\"", "insts");    // wrong type
  expect_error("\"unroll\":2", "\"unroll\":\"two\"", "unroll");
  expect_error("\"unroll\":2", "\"unroll\":0", "unroll");      // no such design
  expect_error("\"unroll\":2", "\"unroll\":99", "unroll");
  expect_error("\"text_bytes\":100", "\"text_bytes\":-100", "text_bytes");
  expect_error("\"text_bytes\":100", "\"text_bytes\":4294967296",
               "text_bytes");
  expect_error("\"ok\":true", "\"ok\":1", "ok");
  expect_error("\"workload\":\"fib\"", "\"workload\":7", "workload");
  expect_error("\"sofia\":{", "\"sofia_\":{", "sofia");
  expect_error("sofia-sweep-v6", "sofia-sweep-v5", "sofia-sweep-v6");
  EXPECT_THROW(render("[]"), Error);
}

TEST(Tables, ARealSweepRendersFromItsOwnDocument) {
  auto spec = driver::smoke(driver::matrix("granularity"));
  spec.workloads = {"fib"};
  const auto result = driver::run_sweep(spec, 2);
  ASSERT_TRUE(result.all_ok());
  const auto table = render(driver::to_json(result));
  for (const auto& config : spec.configs) expect_contains(table, config.name);
  expect_contains(table, std::to_string(result.jobs[0].m.sofia_cycles));
}

}  // namespace
}  // namespace sofia
