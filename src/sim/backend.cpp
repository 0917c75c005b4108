#include "sim/backend.hpp"

#include "sim/cycle_backend.hpp"
#include "sim/functional_backend.hpp"
#include "support/error.hpp"

namespace sofia::sim {

namespace {

template <typename T>
std::unique_ptr<Backend> make() {
  return std::make_unique<T>();
}

}  // namespace

const std::vector<BackendEntry>& backend_registry() {
  static const std::vector<BackendEntry> registry = {
      {"cycle", make<CycleAccurateBackend>},
      {"functional", make<FunctionalBackend>},
  };
  return registry;
}

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  for (const auto& entry : backend_registry())
    names.emplace_back(entry.name);
  return names;
}

bool is_backend(std::string_view name) {
  for (const auto& entry : backend_registry())
    if (entry.name == name) return true;
  return false;
}

std::unique_ptr<Backend> make_backend(std::string_view name) {
  for (const auto& entry : backend_registry())
    if (entry.name == name) return entry.make();
  std::string known;
  for (const auto& entry : backend_registry()) {
    if (!known.empty()) known += " or ";
    known += entry.name;
  }
  throw Error("unknown backend '" + std::string(name) + "' (expected " + known +
              ")");
}

}  // namespace sofia::sim
