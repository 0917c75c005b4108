// Flat, sparse, little-endian physical memory (4 KiB pages allocated on
// first touch), with a small direct-mapped cache of recently used pages in
// front of the page list. Pure storage: MMIO is decoded by the core, not
// here.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "assembler/image.hpp"

namespace sofia::sim {

class Memory {
 public:
  Memory() = default;
  // The page cache points into this object's pages.
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;
  // Loads fill the page cache, so they are not const.
  std::uint8_t load8(std::uint32_t addr);
  std::uint16_t load16(std::uint32_t addr);
  /// Inline: every fetched instruction word is one load32.
  std::uint32_t load32(std::uint32_t addr) {
    const std::uint32_t offset = addr & (kPageSize - 1);
    if (offset > kPageSize - 4)  // straddles a page boundary
      return static_cast<std::uint32_t>(load16(addr)) |
             (static_cast<std::uint32_t>(load16(addr + 2)) << 16);
    const std::uint8_t* page = page_for_read(addr);
    if (!page) return 0;
    const std::uint8_t* p = page + offset;
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }
  void store8(std::uint32_t addr, std::uint8_t value);
  void store16(std::uint32_t addr, std::uint16_t value);
  void store32(std::uint32_t addr, std::uint32_t value);

  /// Copy an image's text and data sections into memory.
  void load_image(const assembler::LoadImage& image);

 private:
  static constexpr std::uint32_t kPageBits = 12;
  static constexpr std::uint32_t kPageSize = 1u << kPageBits;

  static constexpr std::uint32_t kCachedPages = 16;

  /// The page cache slot of page `number`: its low bits with bits 8-11
  /// folded in, so the default layout's text (page 0x000), data (0x100)
  /// and stack (0x1FF) pages do not share a slot.
  static std::uint32_t slot_of(std::uint32_t number) {
    return (number ^ (number >> 8)) % kCachedPages;
  }

  /// The page holding `addr`, or null when it was never written.
  const std::uint8_t* page_for_read(std::uint32_t addr) {
    const CachedPage& slot = cache_[slot_of(addr >> kPageBits)];
    return slot.number == addr >> kPageBits ? slot.data : read_miss(addr);
  }
  /// The page holding `addr`, allocated (zeroed) on first touch.
  std::uint8_t* page_for_write(std::uint32_t addr) {
    const CachedPage& slot = cache_[slot_of(addr >> kPageBits)];
    return slot.number == addr >> kPageBits ? slot.data : write_miss(addr);
  }
  /// The same past the page cache: look the page up in the list (creating
  /// it, for a write) and cache it.
  const std::uint8_t* read_miss(std::uint32_t addr);
  std::uint8_t* write_miss(std::uint32_t addr);

  /// Copy `n` bytes from `src` to `addr` on, one page at a time.
  void store_bytes(std::uint32_t addr, const void* src, std::size_t n);

  /// The page numbered `number`, or null when it was never written.
  std::uint8_t* find_page(std::uint32_t number) const;

  /// Every allocated page, in allocation order. A run touches a handful
  /// (text, data, stack), so a linear scan behind the page cache beats a
  /// hash map.
  struct Page {
    std::uint32_t number;
    std::unique_ptr<std::uint8_t[]> data;
  };
  std::vector<Page> pages_;

  /// Page number -> page, direct-mapped by slot_of(). Never invalidated:
  /// a page's bytes, once allocated, neither move nor go away.
  struct CachedPage {
    std::uint32_t number = ~0u;  ///< no page has this number (addr >> 12)
    std::uint8_t* data = nullptr;
  };
  std::array<CachedPage, kCachedPages> cache_{};
};

}  // namespace sofia::sim
