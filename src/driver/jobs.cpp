#include "driver/jobs.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
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

namespace {

/// The result-cache entries a pool's workers hand to its calling thread.
struct EntryQueue {
  struct Entry {
    cache::ResultStore* store;
    cache::Key key;
    std::string kind;
    std::string payload;
  };

  explicit EntryQueue(unsigned workers) : running(workers) {}

  /// The calling thread's loop: write entries as they arrive and return
  /// once every worker has finished and nothing is left.
  void drain() {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      ready.wait(lock, [&] { return !entries.empty() || running == 0; });
      if (entries.empty()) return;
      const Entry entry = std::move(entries.front());
      entries.pop_front();
      lock.unlock();
      entry.store->store(entry.key, entry.kind, entry.payload);
      lock.lock();
    }
  }

  std::mutex mutex;
  std::condition_variable ready;  ///< an entry queued or a worker finished
  std::deque<Entry> entries;
  unsigned running;  ///< workers still claiming indices
};

/// The queue of the pool this thread works for, if any.
thread_local EntryQueue* pool_queue = nullptr;

}  // namespace

void detail::store_entry(cache::ResultStore& store, const cache::Key& key,
                         std::string_view kind, std::string_view payload) {
  EntryQueue* queue = pool_queue;
  if (queue != nullptr) {
    bool queued = false;
    {
      const std::lock_guard<std::mutex> lock(queue->mutex);
      if (queue->entries.size() < kQueuedEntries) {
        queue->entries.push_back(
            {&store, key, std::string(kind), std::string(payload)});
        queued = true;
      }
    }
    if (queued) {
      queue->ready.notify_one();
      return;
    }
  }
  store.store(key, kind, payload);
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
    // The calling thread writes the entries the workers queue instead of
    // only waiting in join(). store() turns I/O failures into warnings;
    // anything else it throws waits for the joins (a joinable std::thread
    // must not be destroyed), and meanwhile the workers write their own
    // entries once the queue is full. Creating an entry's inode is CPU
    // work, so the calling thread takes entries only when the workers leave
    // it a core; on a full machine it is one writer too many (a cold cached
    // smoke campaign at 4 threads on a 4-core VM took 9% longer).
    const bool spare_core = run.threads < std::thread::hardware_concurrency();
    EntryQueue queue(run.threads);
    std::vector<std::thread> pool;
    pool.reserve(run.threads);
    for (unsigned t = 0; t < run.threads; ++t)
      pool.emplace_back([&] {
        pool_queue = spare_core ? &queue : nullptr;
        worker();
        {
          const std::lock_guard<std::mutex> lock(queue.mutex);
          --queue.running;
        }
        queue.ready.notify_one();
      });
    std::exception_ptr failure;
    try {
      queue.drain();
    } catch (...) {
      failure = std::current_exception();
    }
    for (auto& t : pool) t.join();
    if (failure) std::rethrow_exception(failure);
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

json::Value merge_files(const std::string& out,
                        const std::vector<std::string>& inputs, MergeFn merge,
                        std::FILE* log) {
  std::vector<std::string> documents;
  documents.reserve(inputs.size());
  for (const auto& path : inputs) documents.push_back(io::read_file(path));
  const std::string merged = merge(documents);
  io::emit_document(out, merged);
  std::fprintf(log, "merged %zu document(s) into %s\n", documents.size(),
               out.c_str());
  return json::parse(merged);
}

std::vector<std::string> run_workers(const Fleet& fleet, std::FILE* log) {
  const std::uint32_t n = fleet.workers;
  std::string common = fleet.launch;
  for (const auto& arg : fleet.args) (common += ' ') += cli::shell_quote(arg);
  if (std::none_of(fleet.args.begin(), fleet.args.end(), [](const auto& arg) {
        return arg == "--threads" || arg.starts_with("--threads=");
      }))
    (common += " --threads ") +=
        std::to_string(std::max(1u, std::thread::hardware_concurrency() / n));

  // Launch every worker first (they all run concurrently), then drain
  // their stdouts in order. A later worker blocked on a full pipe simply
  // waits for its turn to be drained; nothing deadlocks. A silent fan-out
  // keeps each worker's stderr (its own header and "done in" lines) in a
  // file and shows it only for a worker that failed.
  std::vector<std::string> commands(n);
  std::vector<std::string> documents(n);
  std::vector<std::string> stderr_files(n);  ///< "" = inherited stderr
  std::vector<std::FILE*> pipes(n);
  for (std::uint32_t k = 0; k < n; ++k) {
    commands[k] = common + " --shard " + ShardSpec{k, n}.to_string() +
                  " --quiet --json -";
    std::string launched = commands[k];
    if (log != nullptr) {
      std::fprintf(log, "  [shard %u/%u] %s\n", k, n, commands[k].c_str());
    } else {
      std::string path = (std::filesystem::temp_directory_path() /
                          "sofia-worker-XXXXXX")
                             .string();
      const int fd = mkstemp(path.data());
      if (fd >= 0) {
        close(fd);
        (launched += " 2>") += cli::shell_quote(path);
        stderr_files[k] = std::move(path);
      }
    }
    std::fflush(nullptr);  // our lines before the workers' stderr
    pipes[k] = popen(launched.c_str(), "r");
  }
  std::string failure;
  for (std::uint32_t k = 0; k < n; ++k) {
    int exit_code = -1;  // a worker that could not be launched
    if (pipes[k] != nullptr) {
      std::array<char, 4096> buffer;
      std::size_t got = 0;
      while ((got = std::fread(buffer.data(), 1, buffer.size(), pipes[k])) > 0)
        documents[k].append(buffer.data(), got);
      const int status = pclose(pipes[k]);
      exit_code =
          WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    }
    if (exit_code < fleet.failure_exit && !documents[k].empty()) {
      if (log != nullptr)
        std::fprintf(log, "  [shard %u/%u] ok (%zu bytes)\n", k, n,
                     documents[k].size());
    } else if (failure.empty()) {
      failure = std::string("worker ") + ShardSpec{k, n}.to_string() +
                " failed (exit " + std::to_string(exit_code) +
                (documents[k].empty() ? ", empty document" : "") + "): '" +
                commands[k] + "'";
      if (!stderr_files[k].empty()) {
        std::ifstream err(stderr_files[k], std::ios::binary);
        std::string text(std::istreambuf_iterator<char>(err), {});
        while (!text.empty() && text.back() == '\n') text.pop_back();
        if (!text.empty()) (failure += '\n') += text;
      }
    }
  }
  for (const std::string& path : stderr_files)
    if (!path.empty()) std::remove(path.c_str());
  if (!failure.empty()) throw Error(failure);
  return documents;
}

json::Value merge_workers(const Fleet& fleet, const std::string& out,
                          MergeFn merge, std::FILE* log, bool quiet) {
  const std::string merged = merge(run_workers(fleet, quiet ? nullptr : log));
  if (!out.empty()) io::emit_document(out, merged);
  json::Value document = json::parse(merged);
  std::fprintf(log, "merged %u shard(s) into %s (%llu jobs)\n", fleet.workers,
               out.empty() ? "no file" : out.c_str(),
               static_cast<unsigned long long>(
                   document.at("job_count", "merged document")
                       .as_uint("job_count")));
  return document;
}

}  // namespace sofia::driver
