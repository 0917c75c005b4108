#include "sim/memory.hpp"

#include <algorithm>
#include <cstring>

namespace sofia::sim {

const std::uint8_t* Memory::page_for_read(std::uint32_t addr) const {
  const auto it = pages_.find(addr >> kPageBits);
  return it == pages_.end() ? nullptr : it->second.get();
}

std::uint8_t* Memory::page_for_write(std::uint32_t addr) {
  auto& page = pages_[addr >> kPageBits];
  if (!page) {
    page = std::make_unique<std::uint8_t[]>(kPageSize);
    std::memset(page.get(), 0, kPageSize);
  }
  return page.get();
}

std::uint8_t Memory::load8(std::uint32_t addr) const {
  const std::uint8_t* page = page_for_read(addr);
  return page ? page[addr & (kPageSize - 1)] : 0;
}

// An access inside one page takes one page lookup; one that straddles a page
// boundary (or the top of the address space) reads byte by byte.
std::uint16_t Memory::load16(std::uint32_t addr) const {
  const std::uint32_t offset = addr & (kPageSize - 1);
  if (offset > kPageSize - 2)
    return static_cast<std::uint16_t>(load8(addr) | (load8(addr + 1) << 8));
  const std::uint8_t* page = page_for_read(addr);
  if (!page) return 0;
  return static_cast<std::uint16_t>(page[offset] | (page[offset + 1] << 8));
}

std::uint32_t Memory::load32(std::uint32_t addr) const {
  const std::uint32_t offset = addr & (kPageSize - 1);
  if (offset > kPageSize - 4)
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

template <typename Byte>
void Memory::store_bytes(std::uint32_t addr, std::size_t n, Byte&& byte) {
  for (std::size_t i = 0; i < n;) {
    const std::uint32_t offset = addr & (kPageSize - 1);
    const std::size_t chunk = std::min<std::size_t>(n - i, kPageSize - offset);
    std::uint8_t* page = page_for_write(addr) + offset;
    for (std::size_t k = 0; k < chunk; ++k) page[k] = byte(i + k);
    addr += static_cast<std::uint32_t>(chunk);
    i += chunk;
  }
}

void Memory::load_image(const assembler::LoadImage& image) {
  store_bytes(image.text_base, image.text.size() * 4, [&](std::size_t i) {
    return static_cast<std::uint8_t>(image.text[i / 4] >> (8 * (i % 4)));
  });
  store_bytes(image.data_base, image.data.size(),
              [&](std::size_t i) { return image.data[i]; });
}

}  // namespace sofia::sim
