// sofia-run: execute a saved image on the simulated device (vanilla core
// for plain images, SOFIA core for hardened ones). The device is described
// by the same DeviceProfile flags sofia_asm takes; a cipher or key mismatch
// is an architectural reset on the first fetched block, exactly as on the
// real device — never a crash.
#include <cstdio>
#include <string>

#include "pipeline/pipeline.hpp"
#include "scheme/scheme.hpp"
#include "sim/backend.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"

int main(int argc, char** argv) {
  using namespace sofia;
  std::string key_seed;
  std::string cipher = "rectangle80";
  std::string scheme(scheme::kDefaultScheme);
  std::string backend(sim::kDefaultBackend);
  bool stats = false;
  std::uint64_t max_cycles = 0;
  std::string path;

  cli::Parser parser("sofia_run",
                     "execute a saved image on the simulated device");
  parser
      .choice("--cipher", cipher, {"rectangle80", "speck64"},
              "device cipher (must match sofia_asm's)")
      .choice("--scheme", scheme, scheme::scheme_names(),
              "protection scheme the device implements (must match "
              "sofia_asm's)")
      .choice("--backend", backend, sim::backend_names(),
              "execution backend: cycle = paper-faithful timing, "
              "functional = fast architectural run")
      .option("--key-seed", key_seed, "n",
              "device KeySet seed (must match sofia_asm's)")
      .option("--max-cycles", max_cycles, "n", "cycle budget (default 2e9)")
      .flag("--stats", stats, "print the detailed statistics block")
      .positional("image.img", path);
  parser.parse_or_exit(argc, argv);

  try {
    auto profile = pipeline::DeviceProfile::parse(cipher);
    if (!key_seed.empty()) {
      std::uint64_t seed = 0;
      if (!cli::parse_number(key_seed, seed))
        return parser.fail("--key-seed: invalid number '" + key_seed + "'");
      profile = pipeline::DeviceProfile::from_seed(profile.cipher, seed);
    }
    profile.scheme = scheme;    // already validated by the choice flag
    profile.backend = backend;  // ditto

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
    if (scheme != scheme::kDefaultScheme)
      std::printf(" scheme=%s", scheme.c_str());
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
