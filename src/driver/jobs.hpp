// The job engine shared by the experiment sweep (driver/sweep) and the
// adversarial campaign (campaign/campaign): the shard slice, the indexed
// thread pool, the result-cache policy, the index-exact record collector
// both merges rebuild their documents from, and the two tool modes that
// fold shards back: --merge (shard files) and --workers (shard worker
// processes). Both engines are plug-ins that own only their job body,
// payload codec and document shape.
//
// Determinism contract: workers claim job indices from one atomic counter
// and write each result into the job's own pre-sized slot, so the output
// order (and any JSON rendered from it) never depends on thread
// interleaving, on the shard split or on the cache state. A merge puts
// every shard's records back into the same slots by their "index".
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/result_store.hpp"
#include "support/json.hpp"

namespace sofia::driver {

/// One machine's slice of a multi-machine run: the jobs with index
/// ≡ index (mod count). The default (0 of 1) is the whole job list.
struct ShardSpec {
  std::uint32_t index = 0;
  std::uint32_t count = 1;

  bool is_whole() const { return count <= 1; }
  /// Whether global job `job` is in this (validated) slice.
  bool owns(std::uint64_t job) const { return job % count == index; }
  /// This slice of [0, total), ascending; validates first.
  std::vector<std::uint64_t> slice(std::uint64_t total) const;
  /// Throws sofia::Error when count == 0 or index >= count.
  void validate() const;
  /// Parse the CLI "K/N" syntax.
  static ShardSpec parse(std::string_view text);
  /// "K/N", the documents' "shard" member.
  std::string to_string() const;
};

/// What one for_each_index call used (never part of a document).
struct PoolRun {
  unsigned threads = 1;
  double wall_seconds = 0;
};

/// The most result-cache entries a pool's workers leave queued for its
/// calling thread; a worker that finds the queue full writes its entry
/// itself, so the queue's memory stays bounded.
inline constexpr std::size_t kQueuedEntries = 64;

/// Execute fn(i) for every i in [0, count) on `threads` workers (clamped to
/// [1, count]), each index exactly once. fn must confine its writes to
/// index-owned state, serialize any shared side effect itself and capture
/// failures in its slot instead of throwing.
///
/// When the workers leave a core free (fewer threads than
/// std::thread::hardware_concurrency()), the calling thread writes the
/// result-cache entries that cache_through hands it while the workers run
/// (creating an entry's inode is the cost of a store); otherwise each
/// worker writes its own. Either way every entry is on disk or counted as
/// a store failure when this returns.
PoolRun for_each_index(std::size_t count, unsigned threads,
                       const std::function<void(std::size_t)>& fn);

/// How one engine's job outcome travels through the result cache: a
/// compact JSON payload whose first member is "schema". The cache holds
/// semantic outcomes, never document records, so the renderer stays the
/// single source of document bytes.
template <typename Outcome>
struct PayloadCodec {
  std::string_view kind;    ///< cache entry kind, e.g. "sweep-job"
  std::string_view schema;  ///< the payload's "schema" member
  void (*write)(const Outcome&, json::Writer&);  ///< members after "schema"
  void (*read)(const json::Value&, Outcome&);    ///< throws on any mismatch
};

namespace detail {

/// Fill `out` from a payload; false (and `out` untouched) when it is not
/// this codec's schema or does not decode.
template <typename Outcome>
bool decode_payload(const PayloadCodec<Outcome>& codec,
                    const std::string& payload, Outcome& out) {
  try {
    const json::Value doc = json::parse(payload);
    if (doc.at("schema", "payload").as_string("schema") != codec.schema)
      return false;
    Outcome decoded = out;
    codec.read(doc, decoded);
    out = std::move(decoded);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Write one entry to `store`. On a worker of a for_each_index pool that
/// leaves a core free the entry is queued for the pool's calling thread
/// instead, unless kQueuedEntries are already waiting.
void store_entry(cache::ResultStore& store, const cache::Key& key,
                 std::string_view kind, std::string_view payload);

}  // namespace detail

/// The cache-through policy for job `job`. Without a store, run `body`.
/// With one, derive the key (only then: it can cost a transform and a
/// SHA-256) and look it up:
///  - a decodable hit fills `out`, sets out.from_cache and skips `body`;
///  - an undecodable hit warns "cache: <kind> payload for job N is
///    undecodable; re-executing" and runs `body`;
///  - `body(out)` returns whether the outcome is deterministic, and only
///    those are stored (a sweep stores its caught failures; a campaign
///    never stores a trial error), by the pool's calling thread when
///    `body` runs on a for_each_index worker (detail::store_entry).
template <typename Outcome, typename KeyFn, typename BodyFn>
void cache_through(cache::ResultStore* store,
                   const PayloadCodec<Outcome>& codec, std::uint64_t job,
                   KeyFn&& key, Outcome& out, BodyFn&& body) {
  if (store == nullptr) {
    body(out);
    return;
  }
  const cache::Key k = key();
  if (const auto payload = store->load(k, codec.kind)) {
    if (detail::decode_payload(codec, *payload, out)) {
      out.from_cache = true;
      return;
    }
    std::string message = "cache: ";
    message += codec.kind;
    message += " payload for job ";
    message += std::to_string(job);
    message += " is undecodable; re-executing";
    store->warn(message);
  }
  if (!body(out)) return;
  json::Writer w(-1);
  w.begin_object();
  w.member("schema", codec.schema);
  codec.write(out, w);
  w.end_object();
  detail::store_entry(*store, k, codec.kind, w.str());
}

/// The index-exact collector behind both merges: the records of every
/// document's `member` array, placed by their "index" so that slot i points
/// at the one record (inside `documents`) with index i. Throws sofia::Error when the records cannot
/// fill `job_count` (checked before anything is sized on it), and when an
/// index is missing, out of range or appears more than once.
std::vector<const json::Value*> collect_records(
    const std::vector<json::Value>& documents, std::string_view member,
    std::uint64_t job_count);

/// Either engine's merge: driver::merge_json or campaign::merge_json.
using MergeFn = std::string (*)(const std::vector<std::string>&);

/// The --merge mode: fold the input files with `merge`, emit the result
/// (`out` '-' = stdout), log the count and return the merged document.
/// Throws sofia::Error on unreadable or unmergeable inputs.
json::Value merge_files(const std::string& out,
                        const std::vector<std::string>& inputs, MergeFn merge,
                        std::FILE* log);

/// One --workers fan-out of an engine tool.
struct Fleet {
  std::string launch;  ///< worker command, raw shell ("ssh host sofia_sweep")
  std::uint32_t workers = 1;
  std::vector<std::string> args;  ///< engine flags for every worker, unquoted
  int failure_exit = 1;  ///< a worker exiting at or above it has failed
};

/// Run `<launch> <args> --shard K/N --quiet --json -` for every worker K of
/// N, all at once, with each arg shell-quoted and `--threads max(1,
/// hardware / N)` added when args carry no --threads. Returns the N stdout
/// documents in shard order, after every worker has exited. Logs each
/// command and shard size to `log`. With a null `log` the fan-out is
/// silent: each worker's stderr goes to a temporary file, shown only for a
/// failed worker. Throws sofia::Error naming worker K/N, its exit code and
/// its command (then its stderr, when kept) when a worker exits at or above
/// fleet.failure_exit or returns an empty document.
std::vector<std::string> run_workers(const Fleet& fleet, std::FILE* log);

/// The --workers mode: run_workers (logging each worker unless `quiet`),
/// fold the shards with `merge`, emit the result to `out` (empty =
/// nowhere, '-' = stdout), log "merged N shard(s) into OUT (J jobs)" and
/// return the merged document.
json::Value merge_workers(const Fleet& fleet, const std::string& out,
                          MergeFn merge, std::FILE* log, bool quiet);

}  // namespace sofia::driver
