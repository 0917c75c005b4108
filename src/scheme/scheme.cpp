#include "scheme/scheme.hpp"

#include "scheme/cbcmac_scheme.hpp"
#include "scheme/flta_scheme.hpp"
#include "scheme/null_scheme.hpp"
#include "scheme/sponge_scheme.hpp"
#include "support/error.hpp"

namespace sofia::scheme {

EntryPath entry_path(std::uint32_t offset, std::uint32_t words_per_block) {
  EntryPath path;
  path.offset = offset;
  path.is_mux = offset != 0;
  path.first_inst = path.is_mux ? 3 : 2;
  if (!path.is_mux) {
    for (std::uint32_t j = 0; j < words_per_block; ++j) path.sched.push_back(j);
  } else if (offset == 1) {
    path.sched.push_back(0);
    for (std::uint32_t j = 2; j < words_per_block; ++j) path.sched.push_back(j);
  } else {
    for (std::uint32_t j = 1; j < words_per_block; ++j) path.sched.push_back(j);
  }
  // Empty only for an offset the block is too short to have.
  path.entry_word_index = path.sched.empty() ? 0 : path.sched.front();
  return path;
}

namespace {

template <typename T>
const ProtectionScheme& get() {
  static const T instance;
  return instance;
}

}  // namespace

const std::vector<SchemeEntry>& scheme_registry() {
  static const std::vector<SchemeEntry> registry = {
      {"sofia-cbcmac", kCbcMacSchemeDescription, get<CbcMacScheme>},
      {"sponge", kSpongeSchemeDescription, get<SpongeScheme>},
      {"null", kNullSchemeDescription, get<NullScheme>},
      {"flta", kFltaSchemeDescription, get<FltaScheme>},
  };
  return registry;
}

std::vector<std::string> scheme_names() {
  std::vector<std::string> names;
  for (const auto& entry : scheme_registry())
    names.emplace_back(entry.name);
  return names;
}

bool is_scheme(std::string_view name) {
  for (const auto& entry : scheme_registry())
    if (entry.name == name) return true;
  return false;
}

const ProtectionScheme& get_scheme(std::string_view name) {
  for (const auto& entry : scheme_registry())
    if (entry.name == name) return entry.get();
  std::string known;
  for (const auto& entry : scheme_registry()) {
    if (!known.empty()) known += " or ";
    known += entry.name;
  }
  throw Error("unknown protection scheme '" + std::string(name) +
              "' (expected " + known + ")");
}

}  // namespace sofia::scheme
