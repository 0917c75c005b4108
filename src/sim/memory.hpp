// Flat, sparse, little-endian physical memory (4 KiB pages allocated on
// first touch). Pure storage: MMIO is decoded by the core, not here.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "assembler/image.hpp"

namespace sofia::sim {

class Memory {
 public:
  std::uint8_t load8(std::uint32_t addr) const;
  std::uint16_t load16(std::uint32_t addr) const;
  std::uint32_t load32(std::uint32_t addr) const;
  void store8(std::uint32_t addr, std::uint8_t value);
  void store16(std::uint32_t addr, std::uint16_t value);
  void store32(std::uint32_t addr, std::uint32_t value);

  /// Copy an image's text and data sections into memory.
  void load_image(const assembler::LoadImage& image);

 private:
  static constexpr std::uint32_t kPageBits = 12;
  static constexpr std::uint32_t kPageSize = 1u << kPageBits;

  const std::uint8_t* page_for_read(std::uint32_t addr) const;
  std::uint8_t* page_for_write(std::uint32_t addr);

  /// Write bytes byte(0) .. byte(n-1) from `addr` on, one page at a time.
  template <typename Byte>
  void store_bytes(std::uint32_t addr, std::size_t n, Byte&& byte);

  std::unordered_map<std::uint32_t, std::unique_ptr<std::uint8_t[]>> pages_;
};

}  // namespace sofia::sim
