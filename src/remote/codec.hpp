// The canonical SimConfig byte encoding behind every result-cache key.
//
// The content-addressed cache (src/cache/) keys sweep and campaign entries
// by a digest over these bytes, and perfbench's traced replay recomputes
// the same keys. LoadImage has its canonical form in
// assembler::serialize_image; together the two are the complete "job
// input" byte encoding. perfbench compiles against this header and
// namespace, and test_backend's ConfigEncoding tests pin the bytes: a
// changed byte moves every cache key.
//
// Everything is little-endian with a fixed field order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/cipher_key.hpp"
#include "sim/config.hpp"

namespace sofia::remote {

// ---- byte writer ----------------------------------------------------------

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

// ---- shared field codecs --------------------------------------------------

void put_key(ByteWriter& w, const crypto::CipherKey& key);

/// The canonical SimConfig byte encoding, in a fixed field order.
void put_config(ByteWriter& w, const sim::SimConfig& c);

/// One-shot canonical form — the cache's key material, byte-identical to
/// what put_config writes.
std::vector<std::uint8_t> encode_config(const sim::SimConfig& c);

}  // namespace sofia::remote
