// DeviceProfile: the single source of truth for everything a SOFIA device
// and its installation toolchain must agree on — cipher kind, key material,
// block geometry and CTR granularity (paper §II-B: the provider and the
// device share k1/k2/k3 and ω; a mismatch on any axis is a field failure,
// the device resets on the first block it fetches).
//
// Before this type existed the same four facts were smeared across
// xform::Options, sim::SimConfig.keys/.policy and MeasureOptions.cipher_kind
// and copied by hand at every call site. A DeviceProfile is constructed
// once and *stamped* onto both sides (transform_options() for the
// toolchain, configure() for the simulated device), so they cannot drift.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "assembler/image.hpp"
#include "crypto/ctr.hpp"
#include "crypto/key_set.hpp"
#include "scheme/scheme.hpp"
#include "sim/backend.hpp"
#include "sim/config.hpp"
#include "xform/block_policy.hpp"
#include "xform/transform.hpp"

namespace sofia::json {
class Writer;
}

namespace sofia::pipeline {

/// Where the profile's KeySet comes from.
enum class KeySource : std::uint8_t {
  kExample,   ///< the documented example keys for the cipher
  kSeed,      ///< KeySet::random() seeded with key_seed
  kExplicit,  ///< a caller-supplied KeySet (attack harnesses, tests)
};

struct DeviceProfile {
  crypto::CipherKind cipher = crypto::CipherKind::kRectangle80;
  KeySource key_source = KeySource::kExample;
  std::uint64_t key_seed = 0;          ///< used when key_source == kSeed
  crypto::KeySet explicit_keys{};      ///< used when key_source == kExplicit
  /// Program-version nonce override; < 0 keeps the KeySet's own omega.
  /// (The cross-version replay attack builds a second profile that differs
  /// only here.)
  int omega_override = -1;
  /// The paper's hardware datapath moves 64-bit blocks, i.e. per-pair CTR.
  crypto::Granularity granularity = crypto::Granularity::kPerPair;
  xform::BlockPolicy policy = xform::BlockPolicy::paper_default();
  /// Protection scheme both sides implement — a scheme::scheme_registry()
  /// key ("sofia-cbcmac" = the paper's MAC-then-encrypt, "sponge" =
  /// chained-state authenticated decryption, "null" = encrypt-only
  /// baseline). Stamped onto xform::Options and sim::SimConfig alike, so
  /// toolchain and device cannot disagree; validate with parse_scheme().
  std::string scheme = std::string(scheme::kDefaultScheme);
  /// Execution backend the device runs on — a sim::backend_registry() key
  /// ("cycle" = paper-faithful timing, "functional" = fast architectural
  /// interpreter with identical integrity semantics). Pipeline routes
  /// every run through this name; validate with parse_backend().
  std::string backend = std::string(sim::kDefaultBackend);

  // ---- factories ----------------------------------------------------------

  /// The §III hardware-faithful configuration: RECTANGLE-80, example keys,
  /// per-pair CTR, 8-word blocks with stores banned from inst1/inst2.
  static DeviceProfile paper_default() { return {}; }

  /// Example keys for a specific cipher.
  static DeviceProfile example(crypto::CipherKind kind);

  /// Keys derived deterministically from a seed (the CLI --key-seed flag).
  static DeviceProfile from_seed(crypto::CipherKind kind, std::uint64_t seed);

  /// Wrap caller-supplied key material (cipher follows keys.kind).
  static DeviceProfile with_keys(crypto::KeySet keys);

  /// Parse a CLI cipher name ("rectangle80" or "speck64", case-insensitive;
  /// the to_string() forms are accepted too) into a profile with that
  /// cipher and defaults everywhere else. Throws sofia::Error listing the
  /// accepted names for anything unknown.
  static DeviceProfile parse(std::string_view cipher_name);

  /// The cipher-name parse alone (shared by parse() and the CLI layer).
  static crypto::CipherKind parse_cipher(std::string_view name);

  /// Validate a backend name against sim::backend_registry() and return
  /// it (exact match — the same grammar the CLI --backend choice flags
  /// accept). Throws sofia::Error listing the registered backends for
  /// anything unknown.
  static std::string parse_backend(std::string_view name);

  /// Validate a protection-scheme name against scheme::scheme_registry()
  /// and return it (exact match — the same grammar the CLI --scheme choice
  /// flags accept). Throws sofia::Error listing the registered schemes for
  /// anything unknown.
  static std::string parse_scheme(std::string_view name);

  // ---- derived material ---------------------------------------------------

  /// Materialize the KeySet (with any omega override applied).
  crypto::KeySet keys() const;

  /// Toolchain view: xform::Options carrying this profile's policy and
  /// granularity plus the caller's memory layout.
  xform::Options transform_options(assembler::MemoryLayout mem = {}) const;

  /// Device view: stamp keys and policy onto a simulator configuration.
  sim::SimConfig& configure(sim::SimConfig& config) const {
    return configure(config, keys());
  }

  /// The same with keys() already materialized: a session derives them
  /// once, not on every run.
  sim::SimConfig& configure(sim::SimConfig& config,
                            const crypto::KeySet& keys) const;

  /// Stable machine-readable identity of every axis, e.g.
  /// "cipher=RECTANGLE-80 keys=example gran=per-pair policy=8/4
  /// scheme=sofia-cbcmac backend=cycle".
  std::string fingerprint() const;

  /// The backend part of fingerprint(): "backend=cycle".
  std::string backend_fingerprint() const;

  /// Emit the profile as a JSON object through the deterministic writer.
  void to_json(json::Writer& w) const;

  /// One-shot convenience: the profile as a compact JSON document.
  std::string to_json() const;
};

}  // namespace sofia::pipeline
