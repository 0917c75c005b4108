// The remote-execution backend: ships each (image, config) run over the
// wire protocol to a worker process (remote/transport) and returns the
// far side's RunResult, with capabilities() forwarded from the backend the
// worker actually executes. Registered as "remote" in backend_registry();
// the default-constructed entry reads its endpoint from SOFIA_WORKER /
// SOFIA_WORKER_BACKEND, while DeviceProfile.remote injects an explicit
// spec through Pipeline.
#pragma once

#include <memory>
#include <mutex>
#include <optional>

#include "remote/spec.hpp"
#include "sim/backend.hpp"

namespace sofia::remote {
class WorkerProcess;
struct Frame;
}

namespace sofia::sim {

class RemoteBackend final : public Backend {
 public:
  /// Endpoint from the SOFIA_WORKER / SOFIA_WORKER_BACKEND environment.
  RemoteBackend();

  /// Explicit endpoint; unset fields resolve against the environment
  /// (RemoteSpec::resolved()). Construction never talks to the worker —
  /// the process is spawned lazily on the first run()/capabilities() call.
  explicit RemoteBackend(remote::RemoteSpec spec);

  ~RemoteBackend() override;

  std::string_view name() const override { return "remote"; }
  std::string_view describe() const override {
    return "ship runs to a sofia_worker over stdio pipes "
           "(subprocess/ssh/container)";
  }

  /// Forwarded from the far-side backend via a hello exchange (cached after
  /// the first call). Throws sofia::Error when no worker is configured or
  /// reachable.
  BackendCapabilities capabilities() const override;

  /// Serialize the request, hand it to the worker, decode the reply. A
  /// worker-side failure (unknown backend, simulator error) or a transport
  /// failure (worker died mid-reply, malformed frame) throws sofia::Error
  /// naming the worker command; after a transport failure the process is
  /// dropped so the next call respawns it. Concurrent calls are serialized
  /// over the single worker pipe — for real fan-out, run one coordinator
  /// job per worker (see tools/sofia_fleet).
  RunResult run(const assembler::LoadImage& image,
                const SimConfig& config) const override;

  const remote::RemoteSpec& spec() const { return spec_; }

 private:
  remote::WorkerProcess& worker() const;  ///< caller holds mutex_
  remote::Frame exchange(const remote::Frame& request) const;

  remote::RemoteSpec spec_;
  mutable std::mutex mutex_;
  mutable std::unique_ptr<remote::WorkerProcess> worker_;
  mutable std::optional<BackendCapabilities> caps_;
};

}  // namespace sofia::sim
