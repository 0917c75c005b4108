#include "pipeline/device_profile.hpp"

#include <cctype>

#include "support/error.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace sofia::pipeline {

namespace {

std::string lower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s)
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

DeviceProfile DeviceProfile::example(crypto::CipherKind kind) {
  DeviceProfile p;
  p.cipher = kind;
  return p;
}

DeviceProfile DeviceProfile::from_seed(crypto::CipherKind kind,
                                       std::uint64_t seed) {
  DeviceProfile p;
  p.cipher = kind;
  p.key_source = KeySource::kSeed;
  p.key_seed = seed;
  return p;
}

DeviceProfile DeviceProfile::with_keys(crypto::KeySet keys) {
  DeviceProfile p;
  p.cipher = keys.kind;
  p.key_source = KeySource::kExplicit;
  p.explicit_keys = keys;
  return p;
}

crypto::CipherKind DeviceProfile::parse_cipher(std::string_view name) {
  const std::string n = lower(name);
  if (n == "rectangle80" || n == "rectangle-80" || n == "rectangle")
    return crypto::CipherKind::kRectangle80;
  if (n == "speck64" || n == "speck64_128" || n == "speck-64/128" ||
      n == "speck")
    return crypto::CipherKind::kSpeck64_128;
  throw Error("unknown cipher '" + std::string(name) +
              "' (expected rectangle80 or speck64)");
}

std::string DeviceProfile::parse_backend(std::string_view name) {
  if (!sim::is_backend(name))
    sim::make_backend(name);  // throws the canonical "unknown backend" error
  return std::string(name);
}

std::string DeviceProfile::parse_scheme(std::string_view name) {
  scheme::get_scheme(name);  // throws the canonical "unknown scheme" error
  return std::string(name);
}

DeviceProfile DeviceProfile::parse(std::string_view cipher_name) {
  return example(parse_cipher(cipher_name));
}

crypto::KeySet DeviceProfile::keys() const {
  crypto::KeySet keys;
  switch (key_source) {
    case KeySource::kExample:
      keys = crypto::KeySet::example(cipher);
      break;
    case KeySource::kSeed: {
      Rng rng(key_seed);
      keys = crypto::KeySet::random(cipher, rng);
      break;
    }
    case KeySource::kExplicit:
      keys = explicit_keys;
      break;
  }
  if (omega_override >= 0)
    keys.omega = static_cast<std::uint16_t>(omega_override);
  return keys;
}

xform::Options DeviceProfile::transform_options(assembler::MemoryLayout mem,
                                                bool elide_unreachable) const {
  xform::Options opts;
  opts.policy = policy;
  opts.granularity = granularity;
  opts.scheme = scheme;
  opts.elide_unreachable = elide_unreachable;
  opts.mem = mem;
  return opts;
}

sim::SimConfig& DeviceProfile::configure(sim::SimConfig& config) const {
  config.keys = keys();
  config.policy = policy;
  config.scheme = scheme;
  return config;
}

std::string DeviceProfile::fingerprint() const {
  std::string fp = "cipher=";
  fp += crypto::to_string(cipher);
  fp += " keys=";
  switch (key_source) {
    case KeySource::kExample: fp += "example"; break;
    case KeySource::kSeed: fp += "seed:" + std::to_string(key_seed); break;
    case KeySource::kExplicit: fp += "explicit"; break;
  }
  if (omega_override >= 0)
    fp += " omega=" + std::to_string(omega_override);
  fp += " gran=";
  fp += crypto::to_string(granularity);
  fp += " policy=" + std::to_string(policy.words_per_block) + "/" +
        std::to_string(policy.store_min_word);
  // Unconditional (even for the default): an image sealed under one scheme
  // is a different artifact under any other, so the scheme is always part
  // of the device identity.
  fp += " scheme=" + scheme;
  fp += ' ';
  fp += backend_fingerprint();
  return fp;
}

std::string DeviceProfile::backend_fingerprint() const {
  return "backend=" + backend;
}

void DeviceProfile::to_json(json::Writer& w) const {
  w.begin_object();
  w.member("cipher", crypto::to_string(cipher));
  switch (key_source) {
    case KeySource::kExample: w.member("keys", "example"); break;
    case KeySource::kSeed:
      w.member("keys", "seed");
      w.member("key_seed", key_seed);
      break;
    case KeySource::kExplicit: w.member("keys", "explicit"); break;
  }
  if (omega_override >= 0)
    w.member("omega", static_cast<std::int64_t>(omega_override));
  w.member("granularity", crypto::to_string(granularity));
  w.member("scheme", scheme);
  w.member("backend", backend);
  w.key("policy").begin_object();
  w.member("words_per_block", policy.words_per_block);
  w.member("store_min_word", policy.store_min_word);
  w.end_object();
  w.end_object();
}

std::string DeviceProfile::to_json() const {
  json::Writer w(-1);
  to_json(w);
  return w.str();
}

}  // namespace sofia::pipeline
