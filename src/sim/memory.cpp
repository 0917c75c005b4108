#include "sim/memory.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace sofia::sim {

std::uint8_t* Memory::find_page(std::uint32_t number) const {
  for (const Page& page : pages_)
    if (page.number == number) return page.data.get();
  return nullptr;
}

const std::uint8_t* Memory::read_miss(std::uint32_t addr) {
  const std::uint32_t number = addr >> kPageBits;
  std::uint8_t* page = find_page(number);
  if (page) cache_[slot_of(number)] = {number, page};
  return page;
}

std::uint8_t* Memory::write_miss(std::uint32_t addr) {
  const std::uint32_t number = addr >> kPageBits;
  std::uint8_t* page = find_page(number);
  if (!page) {
    // make_unique value-initializes: the new page reads zero.
    pages_.push_back({number, std::make_unique<std::uint8_t[]>(kPageSize)});
    page = pages_.back().data.get();
  }
  cache_[slot_of(number)] = {number, page};
  return page;
}

std::uint8_t Memory::load8(std::uint32_t addr) {
  const std::uint8_t* page = page_for_read(addr);
  return page ? page[addr & (kPageSize - 1)] : 0;
}

// An access inside one page takes one page lookup; one that straddles a page
// boundary (or the top of the address space) reads byte by byte.
std::uint16_t Memory::load16(std::uint32_t addr) {
  const std::uint32_t offset = addr & (kPageSize - 1);
  if (offset > kPageSize - 2)
    return static_cast<std::uint16_t>(load8(addr) | (load8(addr + 1) << 8));
  const std::uint8_t* page = page_for_read(addr);
  if (!page) return 0;
  return static_cast<std::uint16_t>(page[offset] | (page[offset + 1] << 8));
}

void Memory::store8(std::uint32_t addr, std::uint8_t value) {
  page_for_write(addr)[addr & (kPageSize - 1)] = value;
}

// Stores mirror the loads: one page lookup inside a page, byte by byte
// across a boundary.
void Memory::store16(std::uint32_t addr, std::uint16_t value) {
  const std::uint32_t offset = addr & (kPageSize - 1);
  if (offset > kPageSize - 2) {
    store8(addr, static_cast<std::uint8_t>(value));
    store8(addr + 1, static_cast<std::uint8_t>(value >> 8));
    return;
  }
  std::uint8_t* p = page_for_write(addr) + offset;
  p[0] = static_cast<std::uint8_t>(value);
  p[1] = static_cast<std::uint8_t>(value >> 8);
}

void Memory::store32(std::uint32_t addr, std::uint32_t value) {
  const std::uint32_t offset = addr & (kPageSize - 1);
  if (offset > kPageSize - 4) {
    store16(addr, static_cast<std::uint16_t>(value));
    store16(addr + 2, static_cast<std::uint16_t>(value >> 16));
    return;
  }
  std::uint8_t* p = page_for_write(addr) + offset;
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

void Memory::store_bytes(std::uint32_t addr, const void* src, std::size_t n) {
  const auto* bytes = static_cast<const std::uint8_t*>(src);
  for (std::size_t i = 0; i < n;) {
    const std::uint32_t offset = addr & (kPageSize - 1);
    const std::size_t chunk = std::min<std::size_t>(n - i, kPageSize - offset);
    std::memcpy(page_for_write(addr) + offset, bytes + i, chunk);
    addr += static_cast<std::uint32_t>(chunk);
    i += chunk;
  }
}

void Memory::load_image(const assembler::LoadImage& image) {
  // Memory is little-endian, so the text words' in-memory bytes are the
  // image bytes on a little-endian host.
  static_assert(std::endian::native == std::endian::little,
                "load_image copies text words as little-endian bytes");
  store_bytes(image.text_base, image.text.data(), image.text.size() * 4);
  store_bytes(image.data_base, image.data.data(), image.data.size());
}

}  // namespace sofia::sim
