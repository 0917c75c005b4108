// The job engine shared by the experiment sweep (driver/sweep) and the
// adversarial campaign (campaign/campaign): the shard slice, the indexed
// thread pool, the result-cache policy and the --merge tool mode. Both are
// plug-ins that own only their job body, payload codec and document shape.
//
// Determinism contract: workers claim job indices from one atomic counter
// and write each result into the job's own pre-sized slot, so the output
// order (and any JSON rendered from it) never depends on thread
// interleaving, on the shard split or on the cache state.
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

/// Execute fn(i) for every i in [0, count) on `threads` workers (clamped to
/// [1, count]), each index exactly once. fn must confine its writes to
/// index-owned state, serialize any shared side effect itself and capture
/// failures in its slot instead of throwing.
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

}  // namespace detail

/// The cache-through policy for job `job`. Without a store, run `body`.
/// With one, derive the key (only then: it can cost a transform and a
/// SHA-256) and look it up:
///  - a decodable hit fills `out`, sets out.from_cache and skips `body`;
///  - an undecodable hit warns "cache: <kind> payload for job N is
///    undecodable; re-executing" and runs `body`;
///  - `body(out)` returns whether the outcome is deterministic, and only
///    those are stored (a sweep stores its caught failures; a campaign
///    never stores a trial error).
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
  store->store(k, codec.kind, w.str());
}

/// The --merge mode: fold the input files with `merge` (driver::merge_json,
/// campaign::merge_json), emit the result to `out` ('-' = stdout) and log
/// the count. Throws sofia::Error on unreadable or unmergeable inputs.
void merge_files(const std::string& out, const std::vector<std::string>& inputs,
                 std::string (*merge)(const std::vector<std::string>&),
                 std::FILE* log);

}  // namespace sofia::driver
