// The content-addressed result cache: key derivation, the on-disk entry
// format, loud-miss semantics for corrupt entries, lock-free concurrent
// writers, LRU gc — and the contract that matters most to the drivers:
// a warm sweep/campaign renders a document byte-identical to the cold run
// and to a cache-less run, while executing zero jobs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "cache/result_store.hpp"
#include "campaign/campaign.hpp"
#include "driver/sweep.hpp"
#include "support/error.hpp"
#include "support/io.hpp"
#include "support/json.hpp"

namespace {

using namespace sofia;
namespace fs = std::filesystem;

/// A fresh directory under the system temp root, removed on destruction.
struct TempDir {
  fs::path path;

  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "sofia-cache-test-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr)
      throw Error("mkdtemp failed for " + tmpl);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// A warning sink that records every message.
struct WarnLog {
  std::vector<std::string> messages;
  cache::WarnFn fn() {
    return [this](const std::string& m) { messages.push_back(m); };
  }
};

cache::Key key_of(std::string_view tag) {
  return cache::KeyBuilder("test-domain").field("tag", tag).finish();
}

/// The entry's on-disk location (mirrors ResultStore's layout contract:
/// root/<2-hex-prefix>/<64-hex>.sce).
fs::path entry_path(const fs::path& root, const cache::Key& key) {
  const std::string hex = cache::to_hex(key);
  return root / hex.substr(0, 2) /
         (hex + std::string(cache::kEntryExtension));
}

// ---- key derivation --------------------------------------------------------

TEST(KeyBuilder, DeterministicAndInputSensitive) {
  const auto a = cache::KeyBuilder("d").field("x", "hello").finish();
  const auto b = cache::KeyBuilder("d").field("x", "hello").finish();
  const auto c = cache::KeyBuilder("d").field("x", "hellp").finish();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(KeyBuilder, AdjacentFieldsCannotAlias) {
  // Without per-field length prefixes these two would hash the same bytes.
  const auto ab_c =
      cache::KeyBuilder("d").field("l", "ab").field("l", "c").finish();
  const auto a_bc =
      cache::KeyBuilder("d").field("l", "a").field("l", "bc").finish();
  EXPECT_NE(ab_c, a_bc);
}

TEST(KeyBuilder, LabelAndDomainSeparate) {
  const auto x = cache::KeyBuilder("d").field("x", "v").finish();
  const auto y = cache::KeyBuilder("d").field("y", "v").finish();
  const auto other_domain = cache::KeyBuilder("d2").field("x", "v").finish();
  EXPECT_NE(x, y);
  EXPECT_NE(x, other_domain);
}

TEST(KeyBuilder, NumberAndBytesFieldsAreTyped) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3};
  const auto from_bytes = cache::KeyBuilder("d").field("f", bytes).finish();
  const auto from_text =
      cache::KeyBuilder("d").field("f", std::string_view("\x01\x02\x03", 3))
          .finish();
  // Same raw bytes through either overload — same key (the prefix encodes
  // label + length, not C++ type).
  EXPECT_EQ(from_bytes, from_text);
  const auto n1 = cache::KeyBuilder("d").field("n", std::uint64_t{1}).finish();
  const auto n2 = cache::KeyBuilder("d").field("n", std::uint64_t{2}).finish();
  EXPECT_NE(n1, n2);
}

// ---- store / load ----------------------------------------------------------

TEST(ResultStore, RoundTripsPayloadAndCountsStats) {
  TempDir dir;
  WarnLog warnings;
  cache::ResultStore store(dir.path, warnings.fn());

  const auto key = key_of("round-trip");
  EXPECT_FALSE(store.load(key, "job").has_value());  // silent miss
  EXPECT_TRUE(warnings.messages.empty());

  const std::string payload("result bytes \x00\x01\xff with binary", 28);
  store.store(key, "job", payload);
  const auto hit = store.load(key, "job");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, payload);

  const auto s = store.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.stored, 1u);
  EXPECT_EQ(s.failures, 0u);
  EXPECT_TRUE(warnings.messages.empty());
}

TEST(ResultStore, SecondStoreSharesTheEntryAcrossInstances) {
  TempDir dir;
  const auto key = key_of("shared");
  {
    cache::ResultStore writer(dir.path);
    writer.store(key, "job", "payload");
  }
  cache::ResultStore reader(dir.path);  // a different coordinator
  const auto hit = reader.load(key, "job");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload");
}

TEST(ResultStore, WrongKindIsALoudMiss) {
  TempDir dir;
  WarnLog warnings;
  cache::ResultStore store(dir.path, warnings.fn());
  const auto key = key_of("kind");
  store.store(key, "sweep-job", "payload");
  EXPECT_FALSE(store.load(key, "campaign-trial").has_value());
  ASSERT_EQ(warnings.messages.size(), 1u);
  EXPECT_NE(warnings.messages[0].find("re-executing"), std::string::npos)
      << warnings.messages[0];
}

TEST(ResultStore, TruncatedEntryIsALoudMissThenReexecutable) {
  TempDir dir;
  WarnLog warnings;
  cache::ResultStore store(dir.path, warnings.fn());
  const auto key = key_of("truncated");
  store.store(key, "job", "a payload long enough to truncate");

  const fs::path path = entry_path(dir.path, key);
  const auto full = io::read_file(path.string());
  io::write_file(path.string(), full.substr(0, full.size() - 5));

  EXPECT_FALSE(store.load(key, "job").has_value());
  ASSERT_EQ(warnings.messages.size(), 1u);
  EXPECT_NE(warnings.messages[0].find("unusable"), std::string::npos);

  // Re-execution stores again and the entry is healthy once more.
  store.store(key, "job", "a payload long enough to truncate");
  EXPECT_TRUE(store.load(key, "job").has_value());
}

TEST(ResultStore, GarbledPayloadFailsTheDigestCheck) {
  TempDir dir;
  WarnLog warnings;
  cache::ResultStore store(dir.path, warnings.fn());
  const auto key = key_of("garbled");
  store.store(key, "job", "sixteen byte pay");

  const fs::path path = entry_path(dir.path, key);
  auto bytes = io::read_file(path.string());
  bytes.back() ^= 0x20;  // flip a payload bit; the length stays right
  io::write_file(path.string(), bytes);

  EXPECT_FALSE(store.load(key, "job").has_value());
  ASSERT_EQ(warnings.messages.size(), 1u);
  EXPECT_NE(warnings.messages[0].find("unusable"), std::string::npos);
}

TEST(ResultStore, WrongSchemaHeaderIsALoudMiss) {
  TempDir dir;
  WarnLog warnings;
  cache::ResultStore store(dir.path, warnings.fn());
  const auto key = key_of("schema");
  store.store(key, "job", "payload");

  const fs::path path = entry_path(dir.path, key);
  auto bytes = io::read_file(path.string());
  const auto pos = bytes.find("sofia-cache-entry-v1");
  ASSERT_NE(pos, std::string::npos);
  bytes.replace(pos, 20, "sofia-cache-entry-v9");
  io::write_file(path.string(), bytes);

  EXPECT_FALSE(store.load(key, "job").has_value());
  EXPECT_EQ(warnings.messages.size(), 1u);
}

TEST(ResultStore, EntryUnderTheWrongNameIsALoudMiss) {
  TempDir dir;
  WarnLog warnings;
  cache::ResultStore store(dir.path, warnings.fn());
  const auto key = key_of("original");
  const auto other = key_of("somewhere-else");
  store.store(key, "job", "payload");

  const fs::path to = entry_path(dir.path, other);
  fs::create_directories(to.parent_path());
  fs::rename(entry_path(dir.path, key), to);

  EXPECT_FALSE(store.load(other, "job").has_value());
  EXPECT_EQ(warnings.messages.size(), 1u);
}

TEST(ResultStore, StoreFailureWarnsAndCountsButNeverThrows) {
  TempDir dir;
  WarnLog warnings;
  cache::ResultStore store(dir.path, warnings.fn());
  const auto key = key_of("blocked");
  // Occupy the shard directory's name with a FILE so create_directories
  // inside store() must fail.
  const fs::path shard = entry_path(dir.path, key).parent_path();
  io::write_file(shard.string(), "not a directory");

  EXPECT_NO_THROW(store.store(key, "job", "payload"));
  EXPECT_EQ(store.stats().failures, 1u);
  EXPECT_EQ(warnings.messages.size(), 1u);
}

TEST(ResultStore, ConcurrentWritersOfTheSameKeyRaceBenignly) {
  TempDir dir;
  const auto key = key_of("contended");
  const std::string payload(4096, 'x');

  std::vector<std::thread> writers;
  for (int i = 0; i < 8; ++i) {
    writers.emplace_back([&] {
      cache::ResultStore store(dir.path);
      for (int r = 0; r < 25; ++r) store.store(key, "job", payload);
    });
  }
  for (auto& t : writers) t.join();

  cache::ResultStore reader(dir.path);
  const auto hit = reader.load(key, "job");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, payload);
  const auto report = cache::verify_entries(dir.path);
  EXPECT_EQ(report.checked, 1u);
  EXPECT_EQ(report.bad, 0u);
  // No temp files left behind by any writer.
  std::uint64_t stray = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir.path))
    if (e.is_regular_file() &&
        e.path().extension() != cache::kEntryExtension)
      ++stray;
  EXPECT_EQ(stray, 0u);
}

// ---- maintenance -----------------------------------------------------------

TEST(Maintenance, ScanListsEntriesSortedByKey) {
  TempDir dir;
  cache::ResultStore store(dir.path);
  store.store(key_of("b"), "job", "2");
  store.store(key_of("a"), "job", "1");
  store.store(key_of("c"), "trial", "3");

  const auto entries = cache::scan(dir.path);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_LT(entries[0].key_hex, entries[1].key_hex);
  EXPECT_LT(entries[1].key_hex, entries[2].key_hex);
  for (const auto& e : entries) {
    EXPECT_TRUE(e.header_ok);
    EXPECT_FALSE(e.kind.empty());
    EXPECT_GT(e.file_bytes, e.payload_bytes);
  }
}

TEST(Maintenance, VerifyFlagsOnlyTheCorruptEntry) {
  TempDir dir;
  cache::ResultStore store(dir.path);
  store.store(key_of("good"), "job", "healthy payload");
  store.store(key_of("bad"), "job", "doomed payload!");

  const fs::path victim = entry_path(dir.path, key_of("bad"));
  auto bytes = io::read_file(victim.string());
  bytes.back() ^= 1;
  io::write_file(victim.string(), bytes);

  const auto report = cache::verify_entries(dir.path);
  EXPECT_EQ(report.checked, 2u);
  EXPECT_EQ(report.ok, 1u);
  EXPECT_EQ(report.bad, 1u);
  ASSERT_EQ(report.problems.size(), 1u);
  EXPECT_NE(report.problems[0].find(cache::to_hex(key_of("bad"))),
            std::string::npos)
      << report.problems[0];
}

TEST(Maintenance, GcEvictsLeastRecentlyUsedFirst) {
  TempDir dir;
  cache::ResultStore store(dir.path);
  const auto old_key = key_of("old");
  const auto hot_key = key_of("hot");
  store.store(old_key, "job", std::string(1000, 'o'));
  store.store(hot_key, "job", std::string(1000, 'h'));

  // Make the recency order unambiguous (filesystem mtime granularity can
  // be a full second): push "old" into the past, then touch "hot" through
  // a load, which is the LRU signal gc uses.
  fs::last_write_time(entry_path(dir.path, old_key),
                      fs::file_time_type::clock::now() -
                          std::chrono::hours(1));
  ASSERT_TRUE(store.load(hot_key, "job").has_value());

  const auto report = cache::gc(dir.path, 1500);  // room for one entry only
  EXPECT_EQ(report.kept, 1u);
  EXPECT_EQ(report.removed, 1u);
  EXPECT_FALSE(fs::exists(entry_path(dir.path, old_key)));
  EXPECT_TRUE(fs::exists(entry_path(dir.path, hot_key)));
}

TEST(Maintenance, GcSweepsStaleTempFiles) {
  TempDir dir;
  cache::ResultStore store(dir.path);
  store.store(key_of("live"), "job", "payload");

  const fs::path shard = entry_path(dir.path, key_of("live")).parent_path();
  const fs::path stale = shard / ".tmp-deadbeef-1-1";
  io::write_file(stale.string(), "half-written by a dead writer");
  fs::last_write_time(
      stale, fs::file_time_type::clock::now() - std::chrono::hours(1));

  const auto report = cache::gc(dir.path, 1u << 20);
  EXPECT_EQ(report.tmp_removed, 1u);
  EXPECT_EQ(report.removed, 0u);
  EXPECT_FALSE(fs::exists(stale));
}

TEST(ResultStore, OpenResolvesFlagThenEnvThenNothing) {
  TempDir dir;
  const std::string flag_dir = (dir.path / "flag").string();
  const std::string env_dir = (dir.path / "env").string();

  ::unsetenv("SOFIA_CACHE");
  EXPECT_EQ(cache::ResultStore::open(""), nullptr);

  ::setenv("SOFIA_CACHE", env_dir.c_str(), 1);
  auto from_env = cache::ResultStore::open("");
  ASSERT_NE(from_env, nullptr);
  EXPECT_EQ(from_env->root().string(), env_dir);

  auto from_flag = cache::ResultStore::open(flag_dir);  // flag wins over env
  ASSERT_NE(from_flag, nullptr);
  EXPECT_EQ(from_flag->root().string(), flag_dir);
  ::unsetenv("SOFIA_CACHE");
}

// ---- driver integration ----------------------------------------------------

driver::SweepSpec small_spec() {
  driver::SweepSpec spec;
  spec.name = "unit";
  spec.workloads = {"fib", "crc32"};
  spec.size_divisor = 16;
  spec.vary_seed = true;
  spec.configs = {driver::paper_default_config()};
  return spec;
}

// Over the unit spec and every built-in matrix at smoke size, fixed-seed
// matrices with shared vanilla baselines included.
TEST(SweepCache, WarmRunExecutesNothingAndRendersIdenticalBytes) {
  TempDir dir;
  std::vector<driver::SweepSpec> specs = {small_spec()};
  for (const auto& name : driver::matrix_names())
    specs.push_back(driver::smoke(driver::matrix(name)));

  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.name);
    const fs::path path = dir.path / spec.name;
    const auto uncached = driver::run_sweep(spec, 2);

    cache::ResultStore cold_store(path);
    const auto cold = driver::run_sweep(spec, 2, {}, {}, &cold_store);
    EXPECT_EQ(cold.cached_jobs(), 0u);
    EXPECT_EQ(cold_store.stats().stored, cold.jobs.size());

    cache::ResultStore warm_store(path);
    const auto warm = driver::run_sweep(spec, 2, {}, {}, &warm_store);
    EXPECT_EQ(warm.cached_jobs(), warm.jobs.size());
    EXPECT_EQ(warm_store.stats().hits, warm.jobs.size());
    EXPECT_EQ(warm_store.stats().misses, 0u);
    EXPECT_EQ(warm.vanilla_runs, 0u);

    EXPECT_EQ(driver::to_json(uncached), driver::to_json(cold));
    EXPECT_EQ(driver::to_json(cold), driver::to_json(warm));
  }
}

TEST(SweepCache, ShardedColdRunSeedsAFullWarmRun) {
  TempDir dir;
  const auto spec = small_spec();
  cache::ResultStore shard_store(dir.path);
  const auto shard0 =
      driver::run_sweep(spec, 1, {}, driver::ShardSpec{0, 2}, &shard_store);

  cache::ResultStore full_store(dir.path);
  const auto full = driver::run_sweep(spec, 1, {}, {}, &full_store);
  EXPECT_EQ(full.cached_jobs(), shard0.jobs.size());
  EXPECT_EQ(full_store.stats().hits, shard0.jobs.size());
  EXPECT_EQ(driver::to_json(full), driver::to_json(driver::run_sweep(spec, 1)));
}

TEST(SweepCache, CorruptEntryTriggersReexecutionNotFailure) {
  TempDir dir;
  const auto spec = small_spec();
  cache::ResultStore cold_store(dir.path);
  const auto cold = driver::run_sweep(spec, 1, {}, {}, &cold_store);

  // Garble every entry: the warm run must re-execute every job and still
  // render the same bytes.
  for (const auto& info : cache::scan(dir.path)) {
    auto bytes = io::read_file(info.path.string());
    bytes.back() ^= 1;
    io::write_file(info.path.string(), bytes);
  }

  WarnLog warnings;
  cache::ResultStore warm_store(dir.path, warnings.fn());
  const auto warm = driver::run_sweep(spec, 1, {}, {}, &warm_store);
  EXPECT_EQ(warm.cached_jobs(), 0u);
  EXPECT_EQ(warm_store.stats().misses, warm.jobs.size());
  EXPECT_EQ(warnings.messages.size(), warm.jobs.size());
  EXPECT_EQ(driver::to_json(cold), driver::to_json(warm));

  // The re-execution healed the entries.
  EXPECT_EQ(cache::verify_entries(dir.path).bad, 0u);
}

TEST(SweepCache, LintFindingsAreCachedDeterministically) {
  TempDir dir;
  auto spec = small_spec();
  spec.lint = true;
  cache::ResultStore cold_store(dir.path);
  const auto cold = driver::run_sweep(spec, 1, {}, {}, &cold_store);
  cache::ResultStore warm_store(dir.path);
  const auto warm = driver::run_sweep(spec, 1, {}, {}, &warm_store);
  EXPECT_EQ(warm.cached_jobs(), warm.jobs.size());
  EXPECT_EQ(driver::to_json(cold), driver::to_json(warm));
}

// ---- campaign integration --------------------------------------------------

campaign::CampaignSpec smoke_spec(std::uint32_t jobs) {
  auto spec = campaign::smoke(campaign::default_campaign());
  spec.jobs_per_cell = jobs;
  return spec;
}

TEST(CampaignCache, WarmRunServesEveryTrialFromDisk) {
  TempDir dir;
  const auto spec = smoke_spec(25);
  const auto uncached = campaign::run_campaign(spec, 2);

  cache::ResultStore cold_store(dir.path);
  const auto cold = campaign::run_campaign(spec, 2, {}, {}, &cold_store);
  EXPECT_EQ(cold.cached_trials, 0u);

  cache::ResultStore warm_store(dir.path);
  const auto warm = campaign::run_campaign(spec, 2, {}, {}, &warm_store);
  EXPECT_EQ(warm.cached_trials, warm_store.stats().hits);
  EXPECT_EQ(warm_store.stats().misses, 0u);
  EXPECT_GT(warm.cached_trials, 0u);

  EXPECT_EQ(campaign::to_json(uncached), campaign::to_json(cold));
  EXPECT_EQ(campaign::to_json(cold), campaign::to_json(warm));

  // Shard documents carry the decoded trials themselves: a warm shard is
  // byte-identical to a cache-less one, and the warm shards merge into the
  // cache-less unsharded document.
  std::vector<std::string> warm_shards;
  for (std::uint32_t k = 0; k < 2; ++k) {
    const driver::ShardSpec shard{k, 2};
    const auto warm_shard =
        campaign::run_campaign(spec, 2, {}, shard, &warm_store);
    EXPECT_EQ(warm_shard.cached_trials, warm_shard.trials.size());
    warm_shards.push_back(campaign::to_json(warm_shard));
    EXPECT_EQ(warm_shards.back(),
              campaign::to_json(campaign::run_campaign(spec, 2, {}, shard)));
  }
  EXPECT_EQ(campaign::merge_json(warm_shards), campaign::to_json(uncached));
}

cache::Key key_from_hex(const std::string& hex) {
  cache::Key key{};
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(
        std::stoul(hex.substr(2 * i, 2), nullptr, 16));
  return key;
}

json::Value& member(json::Value& v, std::string_view key) {
  for (auto& [k, m] : v.object)
    if (k == key) return m;
  throw Error("test: no member '" + std::string(key) + "'");
}

TEST(CampaignCache, ACachedTrialNoRunProducesIsReExecuted) {
  // An escape stored under another job would put a counterexample into the
  // document that does not replay from (seed, job), and a detection without
  // a reset cause would be tallied under "none". Both entries are decodable
  // JSON; the warm run must still warn, re-execute them and render the cold
  // document.
  TempDir dir;
  auto spec = smoke_spec(30);
  std::erase_if(spec.cells, [](const campaign::CellSpec& cell) {
    return cell.scheme != "sofia-cbcmac" && cell.scheme != "null";
  });
  cache::ResultStore cold_store(dir.path);
  const auto cold =
      campaign::to_json(campaign::run_campaign(spec, 2, {}, {}, &cold_store));

  std::uint64_t escapes = 0;
  std::uint64_t detections = 0;
  for (const auto& info : cache::scan(dir.path)) {
    ASSERT_EQ(info.kind, "campaign-trial");
    const std::string bytes = io::read_file(info.path.string());
    json::Value payload = json::parse(bytes.substr(bytes.find('\n') + 1));
    const std::string cls = member(payload, "cls").string;
    if (cls == "escaped") {
      auto& job = member(member(payload, "escape"), "job").number;
      job = std::to_string(std::stoull(job) + 1);
      ++escapes;
    } else if (cls == "detected" && detections == 0) {
      member(payload, "cause").string = "none";
      ++detections;
    } else {
      continue;
    }
    json::Writer w(-1);
    payload.write(w);
    cold_store.store(key_from_hex(info.key_hex), info.kind, w.str());
  }
  ASSERT_GT(escapes, 0u);
  ASSERT_EQ(detections, 1u);

  WarnLog warnings;
  cache::ResultStore warm_store(dir.path, warnings.fn());
  const auto warm = campaign::run_campaign(spec, 1, {}, {}, &warm_store);
  EXPECT_EQ(warnings.messages.size(), escapes + detections);
  EXPECT_EQ(warm.cached_trials, warm.jobs_run() - escapes - detections);
  EXPECT_EQ(campaign::to_json(warm), cold);
}

TEST(CampaignCache, InterruptedShardResumesIntoTheFullRun) {
  TempDir dir;
  const auto spec = smoke_spec(20);
  // "Interrupted": only shard 0/2 completed before the coordinator died.
  cache::ResultStore shard_store(dir.path);
  (void)campaign::run_campaign(spec, 1, {}, driver::ShardSpec{0, 2},
                               &shard_store);
  const auto first_half = shard_store.stats().stored;
  EXPECT_GT(first_half, 0u);

  // The relaunched full run picks the first half up from disk and converges
  // to the same bytes as an uncached run.
  cache::ResultStore resume_store(dir.path);
  const auto resumed = campaign::run_campaign(spec, 2, {}, {}, &resume_store);
  EXPECT_EQ(resume_store.stats().hits, first_half);
  EXPECT_EQ(campaign::to_json(resumed),
            campaign::to_json(campaign::run_campaign(spec, 2)));
}

}  // namespace
