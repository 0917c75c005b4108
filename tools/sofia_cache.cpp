// sofia-cache: inspect and maintain a content-addressed result cache
// (src/cache/) shared by sofia_sweep, sofia_attack and sofia_fleet.
//
//   sofia_cache stats  --cache DIR [--json PATH]   entry/byte totals per kind
//   sofia_cache verify --cache DIR                 re-hash every entry
//   sofia_cache gc     --cache DIR --max-bytes N   LRU-evict down to N bytes
//
// The cache directory resolves like the producers' --cache flag: the
// explicit option wins, else $SOFIA_CACHE. `verify` exits 1 when any entry
// fails its integrity re-hash (such entries are loud misses at load time,
// never wrong results — verify exists to surface them before a big run).
#include <cstdio>
#include <map>
#include <string>

#include "cache/result_store.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/io.hpp"
#include "support/json.hpp"

namespace {

using namespace sofia;

std::string resolve_root(const std::string& dir) {
  const auto store = cache::ResultStore::open(dir);
  if (!store)
    throw Error("no cache directory (pass --cache DIR or set $SOFIA_CACHE)");
  return store->root().string();
}

struct KindTotals {
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
};

int run_stats(const std::string& dir, const std::string& json_path) {
  const std::string root = resolve_root(dir);
  std::uint64_t entries = 0, bytes = 0, unreadable = 0;
  std::map<std::string, KindTotals> kinds;  // ordered -> deterministic JSON
  for (const auto& info : cache::scan(root)) {
    ++entries;
    bytes += info.file_bytes;
    if (!info.header_ok) {
      ++unreadable;
      continue;
    }
    auto& k = kinds[info.kind];
    ++k.entries;
    k.bytes += info.file_bytes;
  }

  std::printf("cache %s\n", root.c_str());
  std::printf("  %llu entr%s, %llu byte(s)\n",
              static_cast<unsigned long long>(entries),
              entries == 1 ? "y" : "ies",
              static_cast<unsigned long long>(bytes));
  for (const auto& [kind, k] : kinds)
    std::printf("  %-18s %8llu entr%s %12llu byte(s)\n", kind.c_str(),
                static_cast<unsigned long long>(k.entries),
                k.entries == 1 ? "y  " : "ies",
                static_cast<unsigned long long>(k.bytes));
  if (unreadable != 0)
    std::printf("  %llu entr%s with unreadable header(s) (see verify)\n",
                static_cast<unsigned long long>(unreadable),
                unreadable == 1 ? "y" : "ies");

  if (!json_path.empty()) {
    json::Writer w(2);
    w.begin_object();
    w.member("schema", "sofia-cache-stats-v1");
    w.key("cache").begin_object();
    w.member("root", root);
    w.member("entries", entries);
    w.member("bytes", bytes);
    w.member("unreadable", unreadable);
    w.key("kinds").begin_object();
    for (const auto& [kind, k] : kinds) {
      w.key(kind).begin_object();
      w.member("entries", k.entries);
      w.member("bytes", k.bytes);
      w.end_object();
    }
    w.end_object();
    w.end_object();
    w.end_object();
    io::emit_document(json_path, w.document());
  }
  return 0;
}

int run_verify(const std::string& dir) {
  const std::string root = resolve_root(dir);
  const auto report = cache::verify_entries(root);
  std::printf("cache %s: %llu entr%s checked, %llu ok, %llu bad\n",
              root.c_str(), static_cast<unsigned long long>(report.checked),
              report.checked == 1 ? "y" : "ies",
              static_cast<unsigned long long>(report.ok),
              static_cast<unsigned long long>(report.bad));
  for (const auto& problem : report.problems)
    std::printf("  BAD %s\n", problem.c_str());
  return report.bad == 0 ? 0 : 1;
}

int run_gc(const std::string& dir, std::uint64_t max_bytes) {
  const std::string root = resolve_root(dir);
  const auto report = cache::gc(root, max_bytes);
  std::printf("cache %s: kept %llu (%llu bytes), evicted %llu (%llu bytes)",
              root.c_str(), static_cast<unsigned long long>(report.kept),
              static_cast<unsigned long long>(report.kept_bytes),
              static_cast<unsigned long long>(report.removed),
              static_cast<unsigned long long>(report.removed_bytes));
  if (report.tmp_removed != 0)
    std::printf(", swept %llu stale temp file(s)",
                static_cast<unsigned long long>(report.tmp_removed));
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string command;
  std::string cache_dir;
  std::string json_path;
  std::uint64_t max_bytes = 0;
  bool have_max_bytes = false;
  std::string max_bytes_text;

  cli::Parser parser("sofia_cache",
                     "inspect and maintain a content-addressed result cache");
  parser
      .option("--cache", cache_dir, "DIR",
              "cache directory (default: $SOFIA_CACHE)")
      .option("--json", json_path, "PATH",
              "stats: also write a sofia-cache-stats-v1 document "
              "('-' = stdout)")
      .option("--max-bytes", max_bytes_text, "N",
              "gc: evict least-recently-used entries until the cache fits")
      .positional("stats|verify|gc", command);
  parser.parse_or_exit(argc, argv);

  if (!max_bytes_text.empty()) {
    if (!cli::parse_number(max_bytes_text, max_bytes))
      return parser.fail("--max-bytes: expected a number, got '" +
                         max_bytes_text + "'");
    have_max_bytes = true;
  }

  try {
    if (command == "stats") return run_stats(cache_dir, json_path);
    if (command == "verify") return run_verify(cache_dir);
    if (command == "gc") {
      if (!have_max_bytes) return parser.fail("gc needs --max-bytes N");
      return run_gc(cache_dir, max_bytes);
    }
    return parser.fail("unknown command '" + command +
                       "' (expected stats, verify or gc)");
  } catch (const sofia::Error& e) {
    std::fprintf(stderr, "sofia_cache: %s\n", e.what());
    return 1;
  }
}
