#include "remote/codec.hpp"

namespace sofia::remote {

void put_key(ByteWriter& w, const crypto::CipherKey& key) {
  for (const std::uint8_t b : key) w.u8(b);
}

void put_config(ByteWriter& w, const sim::SimConfig& c) {
  w.u32(c.fetch_queue);
  w.u32(c.redirect_bubble);
  w.u32(c.fetch_words_per_cycle);
  w.u32(c.icache.size_bytes);
  w.u32(c.icache.line_bytes);
  w.u32(c.icache.miss_penalty);
  w.u32(c.load_latency);
  w.u32(c.mul_latency);
  w.u8(static_cast<std::uint8_t>(c.keys.kind));
  put_key(w, c.keys.k1);
  put_key(w, c.keys.k2);
  put_key(w, c.keys.k3);
  w.u16(c.keys.omega);
  w.u32(c.policy.words_per_block);
  w.u32(c.policy.store_min_word);
  w.u32(c.cipher.latency);
  w.u8(c.cipher.alternate ? 1 : 0);
  w.u8(c.cipher.pipelined ? 1 : 0);
  w.u32(c.store_gate_headstart);
  w.u8(c.fault.enabled ? 1 : 0);
  w.u64(c.fault.fetch_index);
  w.u32(static_cast<std::uint32_t>(c.fault.bit));
  w.u64(c.max_cycles);
  w.u8(c.collect_trace ? 1 : 0);
  w.u64(static_cast<std::uint64_t>(c.max_trace));
  // The protection scheme by name, not by registry index, so a new scheme
  // never moves an existing key.
  w.str(c.scheme);
}

std::vector<std::uint8_t> encode_config(const sim::SimConfig& c) {
  ByteWriter w;
  put_config(w, c);
  return w.take();
}

}  // namespace sofia::remote
