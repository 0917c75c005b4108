// Content-addressed result cache — the persistence layer behind resumable
// sweeps and campaigns. Every entry is keyed by a SHA-256 digest over the
// *semantic inputs* of a job (device-profile fingerprint, hardened image
// bytes in their canonical serialization, the canonical SimConfig byte
// encoding (remote/codec.hpp), and the job seed), so two matrices that
// overlap on a cell share the entry, and any toolchain or config change
// that could alter the result changes the key.
//
// The store is a plain directory tree — root/<2-hex-prefix>/<64-hex>.sce —
// written atomically (unique temp file in the shard directory, then
// std::rename), so N coordinators or fleet workers can share one cache
// over NFS-ish filesystems without locks: concurrent writers of the same
// key race benignly (entries are deterministic; last rename wins), and a
// reader never observes a half-written entry. Corrupt, truncated or
// schema-mismatched entries are LOUD misses: a warning through the
// caller's sink, then re-execution — never a crash, never silent reuse.
//
// Entry format: one line of compact JSON metadata
//   {"schema":"sofia-cache-entry-v1","key":<hex>,"kind":...,
//    "payload_bytes":N,"payload_sha256":<hex>}
// then '\n', then exactly N raw payload bytes. The payload digest makes
// `sofia_cache verify` (and every load) a pure re-hash — no payload parse
// needed to prove integrity.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/hash.hpp"

namespace sofia::cache {

/// A cache key: the SHA-256 digest of the job's canonical input bytes.
using Key = support::Sha256Digest;

/// Lowercase-hex rendering (64 chars) — the entry's on-disk name.
inline std::string to_hex(const Key& key) { return support::to_hex(key); }

/// Incremental key derivation over labeled, length-prefixed fields. The
/// domain string versions the key schema (bump it and every old entry
/// becomes unreachable, which is the correct failure mode for a key-layout
/// change); the label + length prefix per field rules out ambiguity between
/// adjacent variable-length fields ("ab"+"c" vs "a"+"bc").
class KeyBuilder {
 public:
  explicit KeyBuilder(std::string_view domain);

  KeyBuilder& field(std::string_view label, std::string_view value);
  KeyBuilder& field(std::string_view label,
                    const std::vector<std::uint8_t>& bytes);
  KeyBuilder& field(std::string_view label, std::uint64_t value);

  Key finish();

 private:
  void prefix(std::string_view label, std::uint64_t size);

  support::Sha256 hasher_;
};

/// Per-store counters (monotonic; a snapshot, not a live view).
struct Stats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;    ///< absent entries (silent) + corrupt (loud)
  std::uint64_t stored = 0;
  std::uint64_t failures = 0;  ///< store() attempts that could not land
};

/// Warning sink for loud misses and store failures (typically a line to
/// stderr, prefixed by the owning tool). Never called on a clean miss.
using WarnFn = std::function<void(const std::string&)>;

inline constexpr std::string_view kEntrySchema = "sofia-cache-entry-v1";
inline constexpr std::string_view kEntryExtension = ".sce";

class ResultStore {
 public:
  /// Open (creating directories as needed) a store rooted at `root`.
  /// Throws sofia::Error when the root cannot be created.
  explicit ResultStore(std::filesystem::path root, WarnFn warn = {});

  const std::filesystem::path& root() const { return root_; }

  /// Look up an entry. Returns the payload on an integrity-verified hit
  /// (and touches the entry's mtime, the LRU signal gc() evicts by);
  /// std::nullopt on a miss. An absent entry is a silent miss; a corrupt,
  /// truncated, wrong-kind or digest-mismatched one warns first.
  std::optional<std::string> load(const Key& key, std::string_view kind);

  /// Write an entry atomically (temp file + rename). Failures warn and
  /// count, but never throw — a full disk must not sink a sweep.
  void store(const Key& key, std::string_view kind, std::string_view payload);

  /// Route a message to this store's warning sink (payload-level decode
  /// problems discovered by callers belong in the same channel as the
  /// store's own integrity warnings).
  void warn(const std::string& message) const;

  Stats stats() const;

  /// Resolve the conventional CLI contract: a non-empty `dir` (the --cache
  /// flag) wins, else the SOFIA_CACHE environment variable, else no cache
  /// (nullptr). Throws sofia::Error when a resolved root cannot be created.
  static std::unique_ptr<ResultStore> open(const std::string& dir,
                                           WarnFn warn = {});

 private:
  std::filesystem::path entry_path(const Key& key) const;

  std::filesystem::path root_;
  WarnFn warn_;
  // Plain counters behind a mutex (load/store already do file I/O; the
  // lock is noise-level) — see result_store.cpp.
  struct Counters;
  std::shared_ptr<Counters> counters_;
};

/// The --cache DIR / --cache-stats PATH contract sofia_sweep and
/// sofia_attack share. The store resolves like open(); its warnings go to
/// stderr prefixed with the tool name, so they survive --quiet and never
/// touch a stdout document.
class ToolCache {
 public:
  /// Opens the store and logs "cache: ROOT" to `log` when one resolves.
  ToolCache(std::string_view tool, const std::string& dir,
            std::string stats_path, std::FILE* log);

  ResultStore* get() const { return store_.get(); }
  /// The usage error to report before any job runs (--cache-stats without
  /// a cache), or "".
  std::string usage_error() const;
  /// After the run: the "cache: H hit(s), M miss(es), ..." line on stderr
  /// and the --cache-stats document.
  void report() const;

 private:
  std::unique_ptr<ResultStore> store_;
  std::string stats_path_;
};

// ---- maintenance (the sofia_cache CLI and tests) ---------------------------

/// One entry as seen by a directory scan: the header is parsed (cheap; one
/// line) but the payload is NOT re-hashed — see verify_entries().
struct EntryInfo {
  std::filesystem::path path;
  std::string key_hex;  ///< from the file name
  std::string kind;     ///< from the header ("" when the header is unreadable)
  std::uint64_t file_bytes = 0;
  std::uint64_t payload_bytes = 0;
  std::filesystem::file_time_type mtime{};
  bool header_ok = false;
};

/// Enumerate every entry under `root`, sorted by key for determinism.
/// Unreadable headers yield header_ok == false entries, never a throw.
std::vector<EntryInfo> scan(const std::filesystem::path& root);

struct VerifyReport {
  std::uint64_t checked = 0;
  std::uint64_t ok = 0;
  std::uint64_t bad = 0;
  std::vector<std::string> problems;  ///< one line per bad entry
};

/// Re-hash every entry's payload against its header and file name —
/// the full integrity sweep behind `sofia_cache verify`.
VerifyReport verify_entries(const std::filesystem::path& root);

struct GcReport {
  std::uint64_t kept = 0;
  std::uint64_t kept_bytes = 0;
  std::uint64_t removed = 0;
  std::uint64_t removed_bytes = 0;
  std::uint64_t tmp_removed = 0;  ///< stale temp files from dead writers
};

/// Evict least-recently-used entries (by mtime; load() touches it) until
/// the store's total entry bytes fit under `max_bytes`, and sweep stale
/// temp files. `sofia_cache gc --max-bytes N`.
GcReport gc(const std::filesystem::path& root, std::uint64_t max_bytes);

}  // namespace sofia::cache
