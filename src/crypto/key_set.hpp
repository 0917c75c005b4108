// The per-device key material (paper §II-B-1): three keys — k1 for CTR
// instruction encryption, k2 for execution-block CBC-MAC, k3 for
// multiplexor-block CBC-MAC (one MAC key per message length) — plus the
// per-program-version nonce ω stored in the binary header. The software
// provider uses the same KeySet in the transformation toolchain; the
// simulated device embeds it in the fetch unit.
#pragma once

#include <cstdint>
#include <memory>

#include "crypto/block_cipher.hpp"

namespace sofia {
class Rng;
}

namespace sofia::crypto {

struct KeySet {
  CipherKind kind = CipherKind::kRectangle80;
  CipherKey k1{};  ///< CTR instruction-encryption key
  CipherKey k2{};  ///< CBC-MAC key for execution blocks
  CipherKey k3{};  ///< CBC-MAC key for multiplexor blocks
  std::uint16_t omega = 0;  ///< program-version nonce

  /// Fresh random keys and nonce (deterministic given the Rng seed).
  static KeySet random(CipherKind kind, Rng& rng);

  /// A fixed, documented key set for examples and reproducible benches.
  static KeySet example(CipherKind kind);

  std::unique_ptr<BlockCipher64> encryption_cipher() const {
    return make_cipher(kind, k1);
  }
  std::unique_ptr<BlockCipher64> exec_mac_cipher() const {
    return make_cipher(kind, k2);
  }
  std::unique_ptr<BlockCipher64> mux_mac_cipher() const {
    return make_cipher(kind, k3);
  }

  friend bool operator==(const KeySet&, const KeySet&) = default;
};

}  // namespace sofia::crypto
