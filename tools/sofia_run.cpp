// sofia-run: execute a saved image on the simulated device (vanilla core
// for plain images, SOFIA core for hardened ones). The device is described
// by the same DeviceProfile flags sofia_asm takes (tools/device_flags.hpp);
// a cipher, key or block-policy mismatch is an architectural reset, exactly
// as on the real device — never a crash.
#include <cstdio>
#include <string>

#include "device_flags.hpp"
#include "pipeline/pipeline.hpp"
#include "scheme/scheme.hpp"
#include "sim/backend.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"

int main(int argc, char** argv) {
  using namespace sofia;
  tools::DeviceFlags device;
  std::string backend(sim::kDefaultBackend);
  bool stats = false;
  std::uint64_t max_cycles = 0;
  std::string path;

  cli::Parser parser("sofia_run",
                     "execute a saved image on the simulated device");
  device.declare(parser);
  parser
      .choice("--backend", backend, sim::backend_names(),
              "execution backend: cycle = paper-faithful timing, "
              "functional = fast architectural run")
      .option("--max-cycles", max_cycles, "n", "cycle budget (default 2e9)")
      .flag("--stats", stats, "print the detailed statistics block")
      .positional("image.img", path);
  parser.parse_or_exit(argc, argv);

  try {
    auto profile = device.profile(parser);
    profile.backend = backend;  // already validated by the choice flag

    auto session = pipeline::Pipeline::from_image_file(path, profile);
    if (max_cycles != 0) {
      sim::SimConfig config = session.sim_config();
      config.max_cycles = max_cycles;
      session.set_sim_config(config);
    }
    const auto& run = session.run();
    const auto& image = session.image();

    if (!run.output.empty()) std::fputs(run.output.c_str(), stdout);
    std::printf("[%s core] status=%s", image.sofia ? "SOFIA" : "vanilla",
                to_string(run.status).data());
    if (profile.scheme != scheme::kDefaultScheme)
      std::printf(" scheme=%s", profile.scheme.c_str());
    if (backend != sim::kDefaultBackend)
      std::printf(" backend=%s", backend.c_str());
    if (run.status == sim::RunResult::Status::kExited)
      std::printf(" code=%d", run.exit_code);
    if (run.status == sim::RunResult::Status::kReset)
      std::printf(" cause=%s pc=0x%x cycle=%llu",
                  to_string(run.reset.cause).data(), run.reset.pc,
                  static_cast<unsigned long long>(run.reset.cycle));
    if (run.status == sim::RunResult::Status::kFault)
      std::printf(" fault=%s", run.fault.c_str());
    std::printf(" cycles=%llu\n", static_cast<unsigned long long>(run.stats.cycles));
    if (stats) {
      const auto& s = run.stats;
      std::printf("insts=%llu nops=%llu loads=%llu stores=%llu branches=%llu "
                  "taken=%llu\n",
                  static_cast<unsigned long long>(s.insts),
                  static_cast<unsigned long long>(s.nops),
                  static_cast<unsigned long long>(s.loads),
                  static_cast<unsigned long long>(s.stores),
                  static_cast<unsigned long long>(s.branches),
                  static_cast<unsigned long long>(s.taken));
      std::printf("icache: %llu hits %llu misses; blocks=%llu verifications=%llu "
                  "ctr=%llu cbc=%llu gate-stalls=%llu\n",
                  static_cast<unsigned long long>(s.icache_hits),
                  static_cast<unsigned long long>(s.icache_misses),
                  static_cast<unsigned long long>(s.blocks_fetched),
                  static_cast<unsigned long long>(s.mac_verifications),
                  static_cast<unsigned long long>(s.ctr_ops),
                  static_cast<unsigned long long>(s.cbc_ops),
                  static_cast<unsigned long long>(s.store_gate_stalls));
      std::printf("fetch-words=%llu mac-words=%llu queue-empty=%llu "
                  "exec-stalls=%llu\n",
                  static_cast<unsigned long long>(s.fetch_words),
                  static_cast<unsigned long long>(s.mac_words),
                  static_cast<unsigned long long>(s.queue_empty_cycles),
                  static_cast<unsigned long long>(s.exec_stall_cycles));
    }
    return run.ok() ? (run.status == sim::RunResult::Status::kExited
                           ? run.exit_code
                           : 0)
                    : 3;
  } catch (const Error& e) {
    std::fprintf(stderr, "sofia_run: %s\n", e.what());
    return 1;
  }
}
