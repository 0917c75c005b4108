#include "sim/admission.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace sofia::sim {

DeviceIdentity DeviceIdentity::of(const assembler::LoadImage& image,
                                  const SimConfig& config) {
  return {config.scheme,
          config.keys,
          image.omega,
          image.per_pair ? crypto::Granularity::kPerPair
                         : crypto::Granularity::kPerWord,
          config.policy,
          image.text_base / 4};
}

Device::Device(DeviceIdentity id)
    : identity(std::move(id)),
      opener(scheme::get_scheme(identity.scheme)
                 .make_opener(identity.keys, identity.omega,
                              identity.granularity)),
      paths(entry_paths(identity.policy.words_per_block)) {}

// ---------------------------------------------------------------------------
// BlockStore
// ---------------------------------------------------------------------------

// An open-addressed table of record pointers, at most half full, so a probe
// always ends at an empty slot. Records are published with one release CAS
// and never change or move afterwards.
struct BlockStore::Table {
  Table(DeviceIdentity id, std::size_t text_words)
      : device(std::move(id)),
        cap(std::max<std::size_t>(text_words, 1)),
        mask(std::bit_ceil(2 * cap) - 1),
        slots(new std::atomic<OpenedBlock*>[mask + 1]) {
    for (std::size_t i = 0; i <= mask; ++i)
      slots[i].store(nullptr, std::memory_order_relaxed);
  }

  ~Table() {
    for (std::size_t i = 0; i <= mask; ++i)
      delete slots[i].load(std::memory_order_relaxed);
  }

  std::size_t first_slot(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
           mask;
  }

  const Device device;
  const std::size_t cap;
  const std::size_t mask;
  std::unique_ptr<std::atomic<OpenedBlock*>[]> slots;
  /// Records stored plus claims in flight; on a cache line of its own, so
  /// claims do not slow the lookups that read the fields above.
  alignas(64) std::atomic<std::size_t> used{0};
};

BlockStore::BlockStore() = default;
BlockStore::~BlockStore() = default;

const Device* BlockStore::device(const DeviceIdentity& identity,
                                 std::size_t text_words) {
  Table* table = bound_.load(std::memory_order_acquire);
  if (!table) {
    const std::lock_guard<std::mutex> lock(bind_mutex_);
    if (!table_) {
      table_ = std::make_unique<Table>(identity, text_words);
      bound_.store(table_.get(), std::memory_order_release);
    }
    table = table_.get();
  }
  return table->device.identity == identity ? &table->device : nullptr;
}

const OpenedBlock* BlockStore::find(std::uint64_t key) const {
  const Table* table = bound_.load(std::memory_order_acquire);
  if (!table) return nullptr;
  for (std::size_t i = table->first_slot(key);; i = (i + 1) & table->mask) {
    const OpenedBlock* rec = table->slots[i].load(std::memory_order_acquire);
    if (!rec || rec->key == key) return rec;
  }
}

void BlockStore::offer(std::unique_ptr<OpenedBlock>& rec) {
  Table* table = bound_.load(std::memory_order_acquire);
  if (!table) return;
  // Claim room first: a claim made below the cap keeps the records stored
  // at or below it, whatever the other threads do. A full table is seen
  // without writing to the shared counter.
  if (table->used.load(std::memory_order_relaxed) >= table->cap) return;
  if (table->used.fetch_add(1, std::memory_order_relaxed) >= table->cap) {
    table->used.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  for (std::size_t i = table->first_slot(rec->key);;
       i = (i + 1) & table->mask) {
    OpenedBlock* seen = nullptr;
    if (table->slots[i].compare_exchange_strong(seen, rec.get(),
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
      rec.release();
      return;
    }
    if (seen->key == rec->key) break;  // present already: insert-if-absent
  }
  table->used.fetch_sub(1, std::memory_order_relaxed);
}

std::size_t BlockStore::size() const {
  const Table* table = bound_.load(std::memory_order_acquire);
  if (!table) return 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i <= table->mask; ++i)
    if (table->slots[i].load(std::memory_order_acquire)) ++n;
  return n;
}

std::size_t BlockStore::capacity() const {
  const Table* table = bound_.load(std::memory_order_acquire);
  return table ? table->cap : 0;
}

// ---------------------------------------------------------------------------
// BlockCache
// ---------------------------------------------------------------------------

BlockCache::BlockCache(BlockStore* store, const assembler::LoadImage& image,
                       const SimConfig& config)
    : fetch_lo_(image.text_base),
      fetch_hi_(std::uint64_t{image.text_base} + image.text_bytes()),
      fault_armed_(config.fault.enabled) {
  DeviceIdentity id = DeviceIdentity::of(image, config);
  if (store) device_ = store->device(id, image.text.size());
  if (device_) {
    store_ = store;
  } else {
    own_device_ = std::make_unique<Device>(std::move(id));
    device_ = own_device_.get();
  }
}

const OpenedBlock& BlockCache::admit(std::uint32_t target_word,
                                     std::uint32_t prev_word, Core& core) {
  const DeviceIdentity& id = device_->identity;
  const std::uint32_t b = id.policy.words_per_block;
  const std::uint64_t key = block_key(target_word, prev_word);
  Entry& entry = find_or_add(key);
  // An earlier opening of this entry from other words: the opener may take
  // its keystream from it (scheme::OpenedReference).
  const OpenedBlock* ref = nullptr;
  const OpenedBlock* stored = nullptr;  // the store's record at `key`
  const std::uint32_t offset = entry_offset(target_word, id.text_base_word, b);
  if (offset <= 2) {
    const std::uint32_t base_word = target_word - offset;
    raw_.assign(b, 0);
    const scheme::EntryPath& path = device_->paths[offset];
    for (const std::uint32_t j : path.sched)
      raw_[j] = core.fetch((base_word + j) * 4);
    words_fetched_ += path.sched.size();
    // A later store into these words must make the front cache stale.
    fetch_lo_ = std::min<std::uint64_t>(fetch_lo_, std::uint64_t{base_word} * 4);
    fetch_hi_ =
        std::max<std::uint64_t>(fetch_hi_, (std::uint64_t{base_word} + b) * 4);
    if (entry.rec) {
      if (entry.rec->raw == raw_) return *entry.rec;
      ref = entry.rec;
    }
    if (store_) {
      stored = store_->find(key);
      if (stored) {
        if (stored->raw == raw_) return *(entry.rec = stored);
        if (!ref) ref = stored;
      }
    }
  }
  auto rec = std::make_unique<OpenedBlock>();
  rec->key = key;
  rec->adm = sim::admit(
      target_word, id.text_base_word, id.policy, device_->paths,
      [&](std::uint32_t base_word,
          const scheme::EntryPath& path) -> const scheme::DeviceBlock& {
        rec->raw = raw_;
        scheme::OpenedReference known;
        if (ref) known = {ref->raw, ref->dev.plain};
        rec->dev = device_->opener->open(base_word, prev_word, path, rec->raw,
                                         ref ? &known : nullptr);
        return rec->dev;
      });
  entry.rec = rec.get();
  // A stored record at this key (the reference) keeps its slot.
  if (store_ && !rec->raw.empty() && !stored) store_->offer(rec);
  entry.own = std::move(rec);
  return *entry.rec;
}

}  // namespace sofia::sim
