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
                       const SimConfig& config) {
  DeviceIdentity id = DeviceIdentity::of(image, config);
  if (store) device_ = store->device(id, image.text.size());
  if (device_) {
    store_ = store;
  } else {
    own_device_ = std::make_unique<Device>(std::move(id));
    device_ = own_device_.get();
  }
}

}  // namespace sofia::sim
