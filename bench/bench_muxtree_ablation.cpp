// E10 — multiplexor-tree cost (Fig. 9): a function called from k sites
// needs k entries; the tree spends p-2 forwarding blocks and one hop of
// latency per level. Measures static and dynamic cost as k grows.
#include <cstdio>
#include <string>

#include "driver/tables.hpp"
#include "pipeline/pipeline.hpp"

namespace {

std::string callers_program(int k, int reps) {
  std::string src = "main:\n  li r5, " + std::to_string(reps) + "\n";
  src += "outer:\n";
  for (int i = 0; i < k; ++i) src += "  call f\n";
  src += "  addi r5, r5, -1\n  bnez r5, outer\n";
  src += "  li r10, 0xFFFF0008\n  sw r1, 0(r10)\n  halt\n";
  src += "f:\n  addi r1, r1, 1\n  ret\n";
  return src;
}

}  // namespace

int main() {
  using namespace sofia;
  std::printf("Multiplexor-tree cost vs caller count (Fig. 9)\n");
  driver::print_rule(96);
  std::printf("%-8s %10s %10s %10s | %10s %10s | %12s\n", "callers", "mux",
              "forward", "text x", "cycles(V)", "cycles(S)", "cyc/call");
  driver::print_rule(96);
  for (const int k : {1, 2, 3, 4, 6, 8, 12, 16}) {
    const int reps = 2000 / k;
    auto session = pipeline::Pipeline::from_source(
        callers_program(k, reps), pipeline::DeviceProfile::paper_default(),
        "callers-k" + std::to_string(k));
    const auto& v = session.run_vanilla();
    const auto& s = session.run();
    if (!v.ok() || !s.ok() || v.output != s.output) {
      std::printf("k=%d: RUN MISMATCH\n", k);
      return 1;
    }
    const auto& t = session.hardened();
    const double calls = static_cast<double>(k) * reps;
    std::printf("%-8d %10u %10u %10.2f | %10llu %10llu | %12.1f\n", k,
                t.stats.layout.mux_blocks, t.stats.layout.forward_blocks,
                static_cast<double>(t.image.text_bytes()) /
                    static_cast<double>(session.vanilla_image().text_bytes()),
                static_cast<unsigned long long>(v.stats.cycles),
                static_cast<unsigned long long>(s.stats.cycles),
                static_cast<double>(s.stats.cycles) / calls);
  }
  driver::print_rule(96);
  std::printf("forwarding blocks = callers - 2 per join (the paper's tree),\n"
              "plus one mux hop of latency per tree level on the call path.\n");
  return 0;
}
