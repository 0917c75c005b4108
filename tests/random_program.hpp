// Random SR32 program generator for property-based tests.
//
// Programs terminate by construction: conditional branches only jump
// forward between segments, loops are bounded counted loops on a dedicated
// register, and calls target non-recursive leaf functions. Every program
// ends by printing r1..r8 (so any architectural divergence is observable)
// and halting.
#pragma once

#include <string>
#include <vector>

#include "support/rng.hpp"

namespace sofia::test {

struct GeneratorOptions {
  int min_segments = 3;
  int max_segments = 8;
  int max_insts_per_segment = 6;
  int max_functions = 3;
  bool allow_loops = true;
  bool allow_stores = true;
};

inline std::string random_program(Rng& rng, const GeneratorOptions& opts = {}) {
  const int segments = static_cast<int>(
      rng.next_range(opts.min_segments, opts.max_segments));
  const int functions = static_cast<int>(rng.next_range(0, opts.max_functions));

  auto reg = [&rng]() {
    std::string r = "r";  // not "r" + to_string(): GCC 12 -Wrestrict false positive
    r += std::to_string(rng.next_range(1, 8));
    return r;
  };
  auto imm = [&rng]() { return std::to_string(rng.next_range(-100, 100)); };

  auto random_inst = [&](bool in_function) {
    switch (rng.next_below(opts.allow_stores ? 10 : 8)) {
      case 0: return "  add " + reg() + ", " + reg() + ", " + reg() + "\n";
      case 1: return "  sub " + reg() + ", " + reg() + ", " + reg() + "\n";
      case 2: return "  xor " + reg() + ", " + reg() + ", " + reg() + "\n";
      case 3: return "  addi " + reg() + ", " + reg() + ", " + imm() + "\n";
      case 4: return "  mul " + reg() + ", " + reg() + ", " + reg() + "\n";
      case 5: return "  slli " + reg() + ", " + reg() + ", " +
                     std::to_string(rng.next_range(0, 7)) + "\n";
      case 6: return "  slt " + reg() + ", " + reg() + ", " + reg() + "\n";
      case 7:
        return "  lw " + reg() + ", " +
               std::to_string(4 * rng.next_range(0, 15)) + "(r9)\n";
      case 8:
        return "  sw " + reg() + ", " +
               std::to_string(4 * rng.next_range(0, 15)) + "(r9)\n";
      default:
        // Calls only from main (leaf functions stay leaves).
        if (in_function || functions == 0)
          return "  addi " + reg() + ", " + reg() + ", 1\n";
        return "  call fn" + std::to_string(rng.next_range(0, functions - 1)) +
               "\n";
    }
  };

  std::string src = "main:\n  la r9, buf\n";
  // A bounded loop around the whole body exercises backward edges.
  const bool looped = opts.allow_loops && rng.next_bool(0.6);
  if (looped) {
    src += "  li r11, " + std::to_string(rng.next_range(2, 5)) + "\n";
    src += "mainloop:\n";
  }
  for (int s = 0; s < segments; ++s) {
    src += "seg" + std::to_string(s) + ":\n";
    const int count = static_cast<int>(rng.next_range(1, opts.max_insts_per_segment));
    for (int i = 0; i < count; ++i) src += random_inst(false);
    // Optional forward conditional branch (termination-safe).
    if (s + 2 < segments && rng.next_bool(0.5)) {
      const long long target = rng.next_range(s + 1, segments - 1);
      const char* cond = rng.next_bool() ? "beq" : "blt";
      src += std::string("  ") + cond + " " + reg() + ", " + reg() + ", seg" +
             std::to_string(target) + "\n";
    }
  }
  src += "seg" + std::to_string(segments) + ":\n";
  if (looped) {
    src += "  addi r11, r11, -1\n  bnez r11, mainloop\n";
  }
  // Observable epilogue: dump r1..r8.
  src += "  li r10, 0xFFFF0008\n";
  for (int r = 1; r <= 8; ++r)
    src += "  sw r" + std::to_string(r) + ", 0(r10)\n";
  src += "  halt\n";

  for (int f = 0; f < functions; ++f) {
    src += "fn" + std::to_string(f) + ":\n";
    const int count = static_cast<int>(rng.next_range(1, 5));
    for (int i = 0; i < count; ++i) src += random_inst(true);
    // Some functions get an early-exit branch to test multi-ret merging.
    if (rng.next_bool(0.4)) {
      src += "  beqz " + reg() + ", fn" + std::to_string(f) + "_alt\n";
      src += "  ret\n";
      src += "fn" + std::to_string(f) + "_alt:\n";
      src += random_inst(true);
    }
    src += "  ret\n";
  }
  src += ".data\nbuf: .space 64\n";
  return src;
}

}  // namespace sofia::test
