// sofia-asm: assemble an SR32 source file and produce a loadable image —
// either a plain sequential binary (--vanilla) or a SOFIA-hardened one
// (default), i.e. the paper's §III installation flow as a command-line
// tool. A thin shell over pipeline::Pipeline: the DeviceProfile built from
// the flags is the only place cipher/keys/policy are decided.
#include <cstdio>
#include <string>

#include "assembler/image_io.hpp"
#include "device_flags.hpp"
#include "pipeline/pipeline.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"

int main(int argc, char** argv) {
  using namespace sofia;
  bool vanilla = false;
  bool per_word = false;
  bool quiet = false;
  tools::DeviceFlags device;
  std::string input;
  std::string output;

  cli::Parser parser("sofia_asm",
                     "assemble an SR32 source file into a loadable image");
  parser.flag("--vanilla", vanilla, "skip the SOFIA transform (baseline binary)");
  device.declare(parser);
  parser.flag("--per-word", per_word, "Alg. 1 per-word CTR (default: per-pair)")
      .flag("--quiet", quiet, "suppress the transform report")
      .positional("input.s", input)
      .positional("output.img", output);
  parser.parse_or_exit(argc, argv);

  try {
    auto profile = device.profile(parser);
    profile.granularity = per_word ? crypto::Granularity::kPerWord
                                   : crypto::Granularity::kPerPair;

    auto session = pipeline::Pipeline::from_source_file(input, profile);

    if (vanilla) {
      const auto& image = session.vanilla_image();
      assembler::save_image(image, output);
      if (!quiet)
        std::printf("vanilla image: %zu instructions, %u B text, entry 0x%x\n",
                    session.program().text.size(), image.text_bytes(),
                    image.entry);
      return 0;
    }

    const auto& result = session.hardened();
    assembler::save_image(result.image, output);
    if (!quiet) {
      std::printf("SOFIA image: %s\n", profile.policy.describe().c_str());
      std::printf("  %u B -> %u B (%.2fx); %u exec, %u mux, %u forwarding, "
                  "%u thunk blocks; %u padding NOPs; omega 0x%04x\n",
                  result.stats.text_bytes_in, result.stats.text_bytes_out,
                  result.stats.expansion(), result.stats.layout.exec_blocks,
                  result.stats.layout.mux_blocks,
                  result.stats.layout.forward_blocks,
                  result.stats.layout.thunk_blocks, result.stats.layout.pad_nops,
                  profile.keys().omega);
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "sofia_asm: %s\n", e.what());
    return 1;
  }
}
