#include "sim/memory.hpp"

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

void Memory::store16(std::uint32_t addr, std::uint16_t value) {
  store8(addr, static_cast<std::uint8_t>(value));
  store8(addr + 1, static_cast<std::uint8_t>(value >> 8));
}

void Memory::store32(std::uint32_t addr, std::uint32_t value) {
  store16(addr, static_cast<std::uint16_t>(value));
  store16(addr + 2, static_cast<std::uint16_t>(value >> 16));
}

void Memory::load_image(const assembler::LoadImage& image) {
  for (std::size_t i = 0; i < image.text.size(); ++i)
    store32(image.text_base + static_cast<std::uint32_t>(i * 4), image.text[i]);
  for (std::size_t i = 0; i < image.data.size(); ++i)
    store8(image.data_base + static_cast<std::uint32_t>(i), image.data[i]);
}

}  // namespace sofia::sim
