#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/cipher_engine.hpp"
#include "sim/icache.hpp"
#include "sim/machine.hpp"
#include "sim/memory.hpp"
#include "sim_test_util.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sofia::sim {
namespace {

// ---------------------------------------------------------------------------
// Memory.
// ---------------------------------------------------------------------------

TEST(Memory, ByteHalfWordRoundTrip) {
  Memory mem;
  mem.store32(0x1000, 0xDEADBEEF);
  EXPECT_EQ(mem.load32(0x1000), 0xDEADBEEFu);
  EXPECT_EQ(mem.load8(0x1000), 0xEFu);   // little-endian
  EXPECT_EQ(mem.load8(0x1003), 0xDEu);
  EXPECT_EQ(mem.load16(0x1002), 0xDEADu);
  mem.store8(0x1001, 0x00);
  EXPECT_EQ(mem.load32(0x1000), 0xDEAD00EFu);
}

TEST(Memory, UntouchedMemoryReadsZero) {
  Memory mem;
  EXPECT_EQ(mem.load32(0x123456), 0u);
}

TEST(Memory, CrossPageAccess) {
  Memory mem;
  mem.store32(0x0FFE, 0x11223344);  // straddles a 4 KiB page boundary
  EXPECT_EQ(mem.load32(0x0FFE), 0x11223344u);
  EXPECT_EQ(mem.load16(0x1000), 0x1122u);
}

TEST(Memory, LoadsAtPageEndCrossIntoUnmappedAndMappedPages) {
  Memory mem;
  // Page 0x1000 is mapped, page 0x2000 is not, page 0x3000 is.
  for (std::uint32_t a = 0x1FFC; a < 0x2000; ++a)
    mem.store8(a, static_cast<std::uint8_t>(a));  // FC FD FE FF
  for (std::uint32_t i = 0; i < 4; ++i)
    mem.store8(0x3000 + i, static_cast<std::uint8_t>(0x10 + i));  // 10 11 12 13

  // Mapped -> unmapped: the bytes past the page end read as zero.
  EXPECT_EQ(mem.load32(0x1FFC), 0xFFFEFDFCu);
  EXPECT_EQ(mem.load32(0x1FFD), 0x00FFFEFDu);
  EXPECT_EQ(mem.load32(0x1FFE), 0x0000FFFEu);
  EXPECT_EQ(mem.load32(0x1FFF), 0x000000FFu);
  EXPECT_EQ(mem.load16(0x1FFC), 0xFDFCu);
  EXPECT_EQ(mem.load16(0x1FFD), 0xFEFDu);
  EXPECT_EQ(mem.load16(0x1FFE), 0xFFFEu);
  EXPECT_EQ(mem.load16(0x1FFF), 0x00FFu);

  // Unmapped -> mapped: only the bytes in the next page are non-zero.
  EXPECT_EQ(mem.load32(0x2FFC), 0u);
  EXPECT_EQ(mem.load32(0x2FFD), 0x10000000u);
  EXPECT_EQ(mem.load32(0x2FFE), 0x11100000u);
  EXPECT_EQ(mem.load32(0x2FFF), 0x12111000u);
  EXPECT_EQ(mem.load16(0x2FFC), 0u);
  EXPECT_EQ(mem.load16(0x2FFD), 0u);
  EXPECT_EQ(mem.load16(0x2FFE), 0u);
  EXPECT_EQ(mem.load16(0x2FFF), 0x1000u);

  // The top of the address space wraps to address 0.
  mem.store8(0, 0xAB);
  EXPECT_EQ(mem.load32(0xFFFFFFFF), 0x0000AB00u);
  EXPECT_EQ(mem.load16(0xFFFFFFFF), 0xAB00u);
}

TEST(Memory, LoadImagePlacesSections) {
  assembler::LoadImage img;
  img.text_base = 0;
  img.text = {0xAAAAAAAA, 0xBBBBBBBB};
  img.data_base = 0x100000;
  img.data = {1, 2, 3};
  Memory mem;
  mem.load_image(img);
  EXPECT_EQ(mem.load32(0), 0xAAAAAAAAu);
  EXPECT_EQ(mem.load32(4), 0xBBBBBBBBu);
  EXPECT_EQ(mem.load8(0x100002), 3u);
}

TEST(Memory, LoadImageRoundTripsSectionsThatStraddlePages) {
  // Neither section starts on a page boundary, and each spans three pages:
  // every byte, half-word and word read back through load8/16/32 equals
  // the image, and the bytes around the sections read zero.
  Rng rng(4096);
  assembler::LoadImage img;
  img.text_base = 0x0FF4;
  img.text.resize(1100);
  for (auto& w : img.text) w = rng.next_u32();
  img.data_base = 0x3FFD;
  img.data.resize(5000);
  for (auto& b : img.data) b = static_cast<std::uint8_t>(rng.next_u32());
  Memory mem;
  mem.load_image(img);

  std::vector<std::uint8_t> text_bytes;
  for (const std::uint32_t w : img.text)
    for (int k = 0; k < 4; ++k)
      text_bytes.push_back(static_cast<std::uint8_t>(w >> (8 * k)));
  for (const auto& [base, bytes] :
       {std::pair{img.text_base, text_bytes},
        std::pair{img.data_base, img.data}}) {
    const auto at = [&](std::size_t i) -> std::uint32_t {
      return i < bytes.size() ? bytes[i] : 0;
    };
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      const auto addr = static_cast<std::uint32_t>(base + i);
      ASSERT_EQ(mem.load8(addr), bytes[i]) << std::hex << addr;
      ASSERT_EQ(mem.load16(addr), at(i) | at(i + 1) << 8) << std::hex << addr;
      ASSERT_EQ(mem.load32(addr),
                at(i) | at(i + 1) << 8 | at(i + 2) << 16 | at(i + 3) << 24)
          << std::hex << addr;
    }
    EXPECT_EQ(mem.load8(base - 1), 0u);
    EXPECT_EQ(mem.load8(static_cast<std::uint32_t>(base + bytes.size())), 0u);
  }
  for (std::size_t i = 0; i < img.text.size(); ++i)
    EXPECT_EQ(mem.load32(img.text_base + 4 * static_cast<std::uint32_t>(i)),
              img.text[i]);
}

TEST(Memory, StoresAtPageEndCrossIntoTheNextPage) {
  Memory mem;
  // Every misalignment at the end of page 0x1000: the bytes past the page
  // end land in page 0x2000, which the store maps.
  for (std::uint32_t a = 0x1FFD; a < 0x2000; ++a) {
    mem.store32(a, 0x44332211);
    for (std::uint32_t i = 0; i < 4; ++i)
      EXPECT_EQ(mem.load8(a + i), 0x11 * (i + 1)) << std::hex << a + i;
    EXPECT_EQ(mem.load32(a), 0x44332211u) << std::hex << a;
  }
  mem.store16(0x3FFF, 0xBEEF);
  EXPECT_EQ(mem.load8(0x3FFF), 0xEFu);
  EXPECT_EQ(mem.load8(0x4000), 0xBEu);
  EXPECT_EQ(mem.load16(0x3FFF), 0xBEEFu);
  // In-page stores leave their neighbours alone.
  mem.store16(0x5000, 0x1234);
  mem.store32(0x5002, 0x89ABCDEF);
  EXPECT_EQ(mem.load32(0x5000), 0xCDEF1234u);
  EXPECT_EQ(mem.load16(0x5004), 0x89ABu);
  EXPECT_EQ(mem.load8(0x5006), 0u);
  // The top of the address space wraps to address 0.
  mem.store32(0xFFFFFFFE, 0xA1B2C3D4);
  EXPECT_EQ(mem.load16(0xFFFFFFFE), 0xC3D4u);
  EXPECT_EQ(mem.load16(0), 0xA1B2u);
}

TEST(Memory, LoadImagePlacesSectionsThatStraddlePages) {
  assembler::LoadImage img;
  img.text_base = 0x0FF8;  // four words across the 0x1000 boundary
  img.text = {0x03020100, 0x07060504, 0x0B0A0908, 0x0F0E0D0C};
  img.data_base = 0x2FFD;  // 4 KiB + 6 bytes across two boundaries
  for (std::uint32_t i = 0; i < 4096 + 6; ++i)
    img.data.push_back(static_cast<std::uint8_t>(i * 7));
  Memory mem;
  mem.load_image(img);
  for (std::uint32_t i = 0; i < 16; ++i)
    EXPECT_EQ(mem.load8(0x0FF8 + i), i);
  EXPECT_EQ(mem.load32(0x0FFC), 0x07060504u);
  EXPECT_EQ(mem.load32(0x1000), 0x0B0A0908u);
  for (std::uint32_t i = 0; i < img.data.size(); ++i)
    ASSERT_EQ(mem.load8(0x2FFD + i), img.data[i]) << i;
  EXPECT_EQ(mem.load8(0x2FFC), 0u);
  EXPECT_EQ(mem.load8(0x2FFD + 4096 + 6), 0u);
}

// Pages below 0x100 whose numbers differ by a multiple of 16 share one
// slot of the 16-entry page cache; 0x10000 bytes apart is 16 pages.
constexpr std::uint32_t kAlias = 0x10000;

TEST(Memory, AliasingPagesInterleaveReadsAndWrites) {
  // Five pages that share one cache slot, written and read in turn: every
  // access evicts the previous page, and every read must see its own
  // page's last write (zero before the first).
  Memory mem;
  std::uint32_t expect[5] = {};
  for (std::uint32_t step = 1; step <= 40; ++step) {
    const std::uint32_t w = (step * 3) % 5;
    const std::uint32_t r = (step * 2) % 5;
    expect[w] = step * 0x01010101u;
    mem.store32(0x1008 + w * kAlias, expect[w]);
    EXPECT_EQ(mem.load32(0x1008 + r * kAlias), expect[r]) << step;
    EXPECT_EQ(mem.load8(0x1008 + w * kAlias), step & 0xFF) << step;
  }
}

TEST(Memory, AbsentPageReadThenWrittenReadsBack) {
  Memory mem;
  mem.store32(0x7000, 0x11111111);
  // An absent page in the same slot reads zero and does not disturb the
  // cached page; writing it maps it.
  EXPECT_EQ(mem.load32(0x7000 + kAlias), 0u);
  EXPECT_EQ(mem.load32(0x7000), 0x11111111u);
  EXPECT_EQ(mem.load16(0x7002 + kAlias), 0u);
  mem.store32(0x7004 + kAlias, 0x22222222);
  EXPECT_EQ(mem.load32(0x7004 + kAlias), 0x22222222u);
  EXPECT_EQ(mem.load32(0x7000 + kAlias), 0u);
  EXPECT_EQ(mem.load32(0x7000), 0x11111111u);
  EXPECT_EQ(mem.load32(0x7004), 0u);
  // A page never touched before its first store.
  EXPECT_EQ(mem.load8(0x9FFF), 0u);
  mem.store8(0x9FFF, 0x5A);
  EXPECT_EQ(mem.load8(0x9FFF), 0x5Au);
}

TEST(Memory, StoreAcrossAPageBoundaryIntoAnAliasingPage) {
  Memory mem;
  // Page 0x2000 and page 0x2000 + kAlias share a slot; the latter is
  // cached when the straddling store reaches the former.
  mem.store32(0x2000 + kAlias, 0xCAFEF00D);
  EXPECT_EQ(mem.load32(0x2000 + kAlias), 0xCAFEF00Du);
  mem.store32(0x1FFE, 0x44332211);
  EXPECT_EQ(mem.load32(0x1FFE), 0x44332211u);
  EXPECT_EQ(mem.load16(0x2000), 0x4433u);
  EXPECT_EQ(mem.load32(0x2000 + kAlias), 0xCAFEF00Du);
  // And the other way round: a straddling store from the aliasing page's
  // predecessor into it.
  mem.store32(0x1FFE + kAlias, 0x88776655);
  EXPECT_EQ(mem.load32(0x2000 + kAlias), 0xCAFE8877u);
  EXPECT_EQ(mem.load32(0x1FFE), 0x44332211u);
}

TEST(Memory, LoadImageOverMoreThanSixteenPages) {
  assembler::LoadImage img;
  img.text_base = 0x400;
  for (std::uint32_t i = 0; i < 20 * 1024; ++i) img.text.push_back(i * 2654435761u);
  img.data_base = 0x100000 - 3;
  for (std::uint32_t i = 0; i < 24 * 4096; ++i)
    img.data.push_back(static_cast<std::uint8_t>(i * 13 + (i >> 12)));
  Memory mem;
  mem.load_image(img);
  for (std::uint32_t i = 0; i < img.text.size(); ++i)
    ASSERT_EQ(mem.load32(img.text_base + i * 4), img.text[i]) << i;
  for (std::uint32_t i = 0; i < img.data.size(); ++i)
    ASSERT_EQ(mem.load8(img.data_base + i), img.data[i]) << i;
  // Backwards too, so each read finds its slot held by another page.
  for (std::uint32_t i = img.text.size(); i-- > 0;)
    ASSERT_EQ(mem.load32(img.text_base + i * 4), img.text[i]) << i;
  EXPECT_EQ(mem.load32(img.text_base - 4), 0u);
  EXPECT_EQ(mem.load8(img.data_base + img.data.size()), 0u);
}

// ---------------------------------------------------------------------------
// I-cache.
// ---------------------------------------------------------------------------

TEST(ICache, MissThenHit) {
  CacheConfig cfg{1024, 32, 10};
  ICache cache(cfg);
  EXPECT_EQ(cache.access(0x0), 10u);
  EXPECT_EQ(cache.access(0x4), 1u);   // same line
  EXPECT_EQ(cache.access(0x1C), 1u);  // still same line
  EXPECT_EQ(cache.access(0x20), 10u);  // next line
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(ICache, ConflictEviction) {
  CacheConfig cfg{1024, 32, 10};  // 32 lines
  ICache cache(cfg);
  EXPECT_EQ(cache.access(0x0), 10u);
  EXPECT_EQ(cache.access(0x0 + 1024), 10u);  // same index, different tag
  EXPECT_EQ(cache.access(0x0), 10u);         // evicted
}

TEST(ICache, RejectsBadGeometry) {
  EXPECT_THROW(ICache(CacheConfig{1000, 32, 10}), Error);
  EXPECT_THROW(ICache(CacheConfig{1024, 3, 10}), Error);
  EXPECT_THROW(ICache(CacheConfig{16, 32, 10}), Error);
}

// ---------------------------------------------------------------------------
// Cipher engine timing.
// ---------------------------------------------------------------------------

TEST(CipherEngine, AlternatingSlots) {
  CipherEngine eng(CipherTiming{2, true});
  // CTR ops start on even cycles: 0, 2, 4 -> done 2, 4, 6.
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCtr, 0), 2u);
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCtr, 0), 4u);
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCtr, 0), 6u);
  // CBC ops interleave on odd cycles: 1, 3 -> done 3, 5.
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCbc, 0), 3u);
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCbc, 0), 5u);
}

TEST(CipherEngine, AlternatingRespectsEarliest) {
  CipherEngine eng(CipherTiming{2, true});
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCbc, 10), 13u);  // aligned to 11
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCtr, 10), 12u);
}

TEST(CipherEngine, DemandModeFullyPipelined) {
  CipherEngine eng(CipherTiming{2, false});
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCtr, 0), 2u);
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCbc, 0), 3u);
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCtr, 0), 4u);
}

TEST(CipherEngine, LatencyConfigurable) {
  CipherEngine eng(CipherTiming{26, true});  // non-unrolled RECTANGLE
  EXPECT_EQ(eng.schedule(CipherEngine::Op::kCtr, 0), 26u);
}

// ---------------------------------------------------------------------------
// Vanilla execution: ISA semantics through the whole pipeline.
// ---------------------------------------------------------------------------

using test::run_vanilla;

TEST(VanillaExec, HaltStatus) {
  const auto r = run_vanilla("main:\n halt\n");
  EXPECT_EQ(r.status, RunResult::Status::kHalted);
  EXPECT_GT(r.stats.cycles, 0u);
}

TEST(VanillaExec, ExitCodeViaMmio) {
  const auto r = run_vanilla(R"(
main:
  li r1, 42
  li r2, 0xFFFF0004
  sw r1, 0(r2)
  halt
)");
  EXPECT_EQ(r.status, RunResult::Status::kExited);
  EXPECT_EQ(r.exit_code, 42);
}

TEST(VanillaExec, ConsoleOutput) {
  const auto r = run_vanilla(R"(
main:
  li r2, 0xFFFF0000
  li r1, 'H'
  sw r1, 0(r2)
  li r1, 'i'
  sw r1, 0(r2)
  halt
)");
  EXPECT_EQ(r.output, "Hi");
}

TEST(VanillaExec, PutIntOutput) {
  const auto r = run_vanilla(R"(
main:
  li r2, 0xFFFF0008
  li r1, -123
  sw r1, 0(r2)
  halt
)");
  EXPECT_EQ(r.output, "-123\n");
}

TEST(VanillaExec, ArithmeticSweep) {
  const auto r = run_vanilla(R"(
main:
  li r1, 7
  li r2, -3
  add r3, r1, r2      ; 4
  sub r4, r1, r2      ; 10
  mul r5, r1, r2      ; -21
  and r6, r1, r2      ; 7 & -3 = 5
  or r7, r1, r2       ; 7 | -3 = -1
  xor r8, r1, r2      ; 7 ^ -3 = -6
  add r9, r3, r4      ; 14
  add r9, r9, r5      ; -7
  add r9, r9, r6      ; -2
  add r9, r9, r7      ; -3
  add r9, r9, r8      ; -9
  li r10, 0xFFFF0008
  sw r9, 0(r10)
  halt
)");
  EXPECT_EQ(r.output, "-9\n");
}

TEST(VanillaExec, ShiftAndCompare) {
  const auto r = run_vanilla(R"(
main:
  li r1, -16
  srai r2, r1, 2      ; -4
  srli r3, r1, 28     ; 15
  slli r4, r3, 1      ; 30
  slt r5, r1, r0      ; 1 (-16 < 0)
  sltu r6, r1, r0     ; 0 (0xFFFFFFF0 > 0 unsigned)
  add r7, r2, r3
  add r7, r7, r4
  add r7, r7, r5
  add r7, r7, r6      ; -4+15+30+1+0 = 42
  li r10, 0xFFFF0008
  sw r7, 0(r10)
  halt
)");
  EXPECT_EQ(r.output, "42\n");
}

TEST(VanillaExec, LoadStoreAllWidths) {
  const auto r = run_vanilla(R"(
main:
  la r1, buf
  li r2, 0x12345678
  sw r2, 0(r1)
  lb r3, 0(r1)        ; 0x78
  lbu r4, 3(r1)       ; 0x12
  lh r5, 0(r1)        ; 0x5678
  lhu r6, 2(r1)       ; 0x1234
  sh r5, 4(r1)
  sb r3, 6(r1)
  lw r7, 4(r1)        ; 0x00785678
  li r10, 0xFFFF0008
  sw r3, 0(r10)
  sw r4, 0(r10)
  sw r5, 0(r10)
  sw r6, 0(r10)
  sw r7, 0(r10)
  halt
.data
buf: .space 8
)");
  EXPECT_EQ(r.output, "120\n18\n22136\n4660\n7886456\n");
}

TEST(VanillaExec, SignedLoadsSignExtend) {
  const auto r = run_vanilla(R"(
main:
  la r1, buf
  li r2, -1
  sb r2, 0(r1)
  lb r3, 0(r1)
  lbu r4, 0(r1)
  li r10, 0xFFFF0008
  sw r3, 0(r10)
  sw r4, 0(r10)
  halt
.data
buf: .space 4
)");
  EXPECT_EQ(r.output, "-1\n255\n");
}

TEST(VanillaExec, LoopSum) {
  const auto r = run_vanilla(R"(
main:
  li r1, 0        ; sum
  li r2, 10       ; i
loop:
  add r1, r1, r2
  addi r2, r2, -1
  bnez r2, loop
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
)");
  EXPECT_EQ(r.output, "55\n");
}

TEST(VanillaExec, CallAndReturn) {
  const auto r = run_vanilla(R"(
main:
  li r1, 5
  call double
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
double:
  add r1, r1, r1
  ret
)");
  EXPECT_EQ(r.output, "10\n");
}

TEST(VanillaExec, RecursiveFactorial) {
  const auto r = run_vanilla(R"(
main:
  li r1, 5
  call fact
  li r10, 0xFFFF0008
  sw r2, 0(r10)
  halt
fact:                     ; r2 = r1!
  li r2, 1
  ble r1, r2, done
  addi sp, sp, -8
  sw lr, 0(sp)
  sw r1, 4(sp)
  addi r1, r1, -1
  call fact
  lw r1, 4(sp)
  lw lr, 0(sp)
  addi sp, sp, 8
  mul r2, r2, r1
done:
  ret
)");
  EXPECT_EQ(r.output, "120\n");
}

TEST(VanillaExec, IndirectJumpViaRegister) {
  const auto r = run_vanilla(R"(
main:
  la r4, here
  jalr lr, r4
  halt
here:
  li r1, 9
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
)");
  EXPECT_EQ(r.output, "9\n");
}

TEST(VanillaExec, MisalignedAccessFaults) {
  const auto r = run_vanilla(R"(
main:
  li r1, 2
  lw r2, 0(r1)
  halt
)");
  EXPECT_EQ(r.status, RunResult::Status::kFault);
  EXPECT_NE(r.fault.find("misaligned"), std::string::npos);
}

TEST(VanillaExec, MmioLoadFaults) {
  const auto r = run_vanilla(R"(
main:
  li r1, 0xFFFF0000
  lw r2, 0(r1)
  halt
)");
  EXPECT_EQ(r.status, RunResult::Status::kFault);
}

TEST(VanillaExec, MaxCyclesOnInfiniteLoop) {
  const auto prog = assembler::assemble("main:\n j main\n");
  const auto img = assembler::link_vanilla(prog);
  auto cfg = test::vanilla_config();
  cfg.max_cycles = 5000;
  const auto r = run_image(img, cfg);
  EXPECT_EQ(r.status, RunResult::Status::kMaxCycles);
}

TEST(VanillaExec, R0IsAlwaysZero) {
  const auto r = run_vanilla(R"(
main:
  addi r0, r0, 99
  li r10, 0xFFFF0008
  sw r0, 0(r10)
  halt
)");
  EXPECT_EQ(r.output, "0\n");
}

TEST(VanillaExec, StatsPopulated) {
  const auto r = run_vanilla(R"(
main:
  li r1, 3
loop:
  addi r1, r1, -1
  bnez r1, loop
  halt
)");
  EXPECT_GT(r.stats.insts, 6u);
  EXPECT_EQ(r.stats.branches, 3u);
  EXPECT_EQ(r.stats.taken, 2u);
  EXPECT_GT(r.stats.cycles, r.stats.insts);  // bubbles exist
  EXPECT_GT(r.stats.icache_misses, 0u);
}

TEST(VanillaExec, LoadUseHazardCostsCycles) {
  const auto fast = run_vanilla(R"(
main:
  la r1, buf
  lw r2, 0(r1)
  nop
  add r3, r2, r2
  halt
.data
buf: .word 7
)");
  const auto slow = run_vanilla(R"(
main:
  la r1, buf
  lw r2, 0(r1)
  add r3, r2, r2
  nop
  halt
.data
buf: .word 7
)");
  // Same instruction count; the load-use version cannot be faster.
  EXPECT_GE(slow.stats.cycles, fast.stats.cycles);
}

}  // namespace
}  // namespace sofia::sim
