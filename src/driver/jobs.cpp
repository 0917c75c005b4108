#include "driver/jobs.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/io.hpp"

namespace sofia::driver {

std::vector<std::uint64_t> ShardSpec::slice(std::uint64_t total) const {
  validate();
  std::vector<std::uint64_t> jobs;
  for (std::uint64_t g = index; g < total; g += count) jobs.push_back(g);
  return jobs;
}

void ShardSpec::validate() const {
  if (count == 0) throw Error("shard: count must be >= 1");
  if (index >= count)
    throw Error("shard: index " + std::to_string(index) +
                " out of range for " + std::to_string(count) + " shard(s)");
}

ShardSpec ShardSpec::parse(std::string_view text) {
  const auto slash = text.find('/');
  const auto parse_num = [&](std::string_view part) -> std::uint32_t {
    std::uint64_t v = 0;
    if (!cli::parse_number(part, v) || v > 0xFFFFFFFFull)
      throw Error("shard: expected K/N with K and N in [0, 2^32), got '" +
                  std::string(text) + "'");
    return static_cast<std::uint32_t>(v);
  };
  if (slash == std::string_view::npos)
    throw Error("shard: expected K/N syntax, got '" + std::string(text) + "'");
  ShardSpec shard;
  shard.index = parse_num(text.substr(0, slash));
  shard.count = parse_num(text.substr(slash + 1));
  shard.validate();
  return shard;
}

std::string ShardSpec::to_string() const {
  std::string text = std::to_string(index);
  text += '/';
  text += std::to_string(count);
  return text;
}

PoolRun for_each_index(std::size_t count, unsigned threads,
                       const std::function<void(std::size_t)>& fn) {
  const auto max_threads = static_cast<unsigned>(std::max<std::size_t>(count, 1));
  PoolRun run;
  run.threads = std::clamp(threads, 1u, max_threads);

  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      fn(i);
    }
  };

  if (run.threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(run.threads);
    for (unsigned t = 0; t < run.threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return run;
}

std::vector<const json::Value*> collect_records(
    const std::vector<json::Value>& documents, std::string_view member,
    std::uint64_t job_count) {
  const std::string name(member);
  std::vector<const std::vector<json::Value>*> lists;
  lists.reserve(documents.size());
  std::uint64_t records = 0;
  for (std::size_t d = 0; d < documents.size(); ++d) {
    lists.push_back(&documents[d]
                         .at(member, "merge: document " + std::to_string(d))
                         .as_array(member));
    records += lists.back()->size();
  }
  // A job_count the inputs cannot fill is either a missing shard or a
  // hostile number; both fail before the index is sized on it.
  if (job_count > records)
    throw Error("merge: job_count " + std::to_string(job_count) +
                " but the inputs hold only " + std::to_string(records) +
                " '" + name + "' record(s); the rest are missing");

  // Every record lands on its own in-range index, so with
  // job_count <= records the index ends up complete.
  std::vector<const json::Value*> by_index(job_count, nullptr);
  for (const auto* list : lists) {
    for (const auto& record : *list) {
      const std::uint64_t i =
          record.at("index", "merge: " + name + " record").as_uint("index");
      if (i >= job_count)
        throw Error("merge: " + name + " index " + std::to_string(i) +
                    " out of range for job_count " +
                    std::to_string(job_count));
      if (by_index[i] != nullptr)
        throw Error("merge: " + name + " index " + std::to_string(i) +
                    " appears more than once");
      by_index[i] = &record;
    }
  }
  return by_index;
}

std::string merge_files(const std::string& out,
                        const std::vector<std::string>& inputs,
                        std::string (*merge)(const std::vector<std::string>&),
                        std::FILE* log) {
  std::vector<std::string> documents;
  documents.reserve(inputs.size());
  for (const auto& path : inputs) documents.push_back(io::read_file(path));
  std::string merged = merge(documents);
  io::emit_document(out, merged);
  std::fprintf(log, "merged %zu document(s) into %s\n", documents.size(),
               out.c_str());
  return merged;
}

}  // namespace sofia::driver
