#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <limits>
#include <set>

#include "support/bits.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/hex.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace sofia {
namespace {

TEST(Bits, Rotl16Basics) {
  EXPECT_EQ(rotl16(0x0001, 1), 0x0002);
  EXPECT_EQ(rotl16(0x8000, 1), 0x0001);
  EXPECT_EQ(rotl16(0x1234, 0), 0x1234);
  EXPECT_EQ(rotl16(0x1234, 16), 0x1234);
  EXPECT_EQ(rotl16(0xABCD, 4), 0xBCDA);
}

TEST(Bits, Rotr16InvertsRotl16) {
  for (unsigned n = 0; n < 16; ++n) {
    EXPECT_EQ(rotr16(rotl16(0x5A3C, n), n), 0x5A3C) << n;
  }
}

TEST(Bits, Rotl32AndRotr32) {
  EXPECT_EQ(rotl32(0x80000000u, 1), 1u);
  EXPECT_EQ(rotr32(1u, 1), 0x80000000u);
  for (unsigned n = 0; n < 32; ++n)
    EXPECT_EQ(rotr32(rotl32(0xDEADBEEFu, n), n), 0xDEADBEEFu) << n;
}

TEST(Bits, ExtractInsertRoundTrip) {
  const std::uint32_t w = 0xCAFEBABEu;
  for (unsigned lo = 0; lo < 28; lo += 3) {
    const std::uint32_t field = bits(w, lo, 4);
    EXPECT_EQ(insert_bits(w, lo, 4, field), w);
  }
}

TEST(Bits, InsertMasksValue) {
  EXPECT_EQ(insert_bits(0, 4, 4, 0xFF), 0xF0u);  // value truncated to width
  EXPECT_EQ(insert_bits(0xFFFFFFFFu, 8, 8, 0), 0xFFFF00FFu);
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(sign_extend(0x1FFF, 14), 0x1FFF);
  EXPECT_EQ(sign_extend(0x2000, 14), -8192);
  EXPECT_EQ(sign_extend(0x3FFF, 14), -1);
  EXPECT_EQ(sign_extend(0x7F, 8), 127);
  EXPECT_EQ(sign_extend(0x80, 8), -128);
  EXPECT_EQ(sign_extend(0xFFFFFFFFu, 32), -1);
}

TEST(Bits, FitsSigned) {
  EXPECT_TRUE(fits_signed(8191, 14));
  EXPECT_FALSE(fits_signed(8192, 14));
  EXPECT_TRUE(fits_signed(-8192, 14));
  EXPECT_FALSE(fits_signed(-8193, 14));
  EXPECT_TRUE(fits_signed(0, 1));
  EXPECT_TRUE(fits_signed(-1, 1));
  EXPECT_FALSE(fits_signed(1, 1));
}

TEST(Bits, FitsUnsigned) {
  EXPECT_TRUE(fits_unsigned(0x3FFFF, 18));
  EXPECT_FALSE(fits_unsigned(0x40000, 18));
  EXPECT_TRUE(fits_unsigned(~0ull, 64));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextRangeInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextBelowZeroBoundThrows) {
  // Regression: bound 0 used to reach `(0 - bound) % bound` and divide by
  // zero; an empty range is a caller bug and must fail loudly.
  Rng rng(1);
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(Rng, NextRangeEmptyRangeThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.next_range(3, -3), Error);
  EXPECT_THROW(rng.next_range(1, 0), Error);
  EXPECT_EQ(rng.next_range(5, 5), 5);  // single-point range stays valid
}

TEST(Rng, NextRangeHandlesHugeRanges) {
  // Ranges wider than INT64_MAX used to overflow the signed width
  // computation; width arithmetic is unsigned now.
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    const auto v = rng.next_range(std::numeric_limits<std::int64_t>::min(),
                                  std::numeric_limits<std::int64_t>::max());
    (void)v;  // any int64 is in range; just must not throw or trap
    const auto w = rng.next_range(-2, std::numeric_limits<std::int64_t>::max());
    ASSERT_GE(w, -2);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, ForkPinnedSequences) {
  // The campaign engine replays any trial from (campaign seed, job index)
  // alone — these derived sequences are part of the replay contract, so a
  // change to fork() must be a deliberate, golden-updating decision.
  Rng parent(42);
  Rng c0 = parent.fork(0);
  EXPECT_EQ(c0.next_u64(), 0xd3320a15e8dd7b4eull);
  EXPECT_EQ(c0.next_u64(), 0xa5145fe5194d8897ull);
  EXPECT_EQ(c0.next_u64(), 0x3dc80cc3f8c504a7ull);
  Rng c1 = parent.fork(1);
  EXPECT_EQ(c1.next_u64(), 0x3d3d9188f30728beull);
  EXPECT_EQ(c1.next_u64(), 0x971af471e944d633ull);
  EXPECT_EQ(c1.next_u64(), 0x008865513c09400aull);
}

TEST(Rng, ForkIsPureOnParent) {
  // fork() must neither advance the parent nor depend on call order: any
  // worker thread can derive job substreams in any order.
  Rng parent(7);
  Rng twin(7);
  const Rng a = parent.fork(5);
  const Rng b = parent.fork(9);
  (void)a;
  (void)b;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(parent.next_u64(), twin.next_u64());
  Rng again(7);
  Rng a2 = again.fork(5);
  Rng a1 = Rng(7).fork(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a1.next_u64(), a2.next_u64());
}

TEST(Rng, ForkStreamsIndependent) {
  // Substreams of one parent must not collide with each other or with the
  // parent's own stream.
  Rng parent(123);
  Rng c0 = parent.fork(0);
  Rng c1 = parent.fork(1);
  int same01 = 0;
  int same0p = 0;
  for (int i = 0; i < 64; ++i) {
    const auto v0 = c0.next_u64();
    same01 += (v0 == c1.next_u64());
    same0p += (v0 == parent.next_u64());
  }
  EXPECT_LT(same01, 2);
  EXPECT_LT(same0p, 2);
}

TEST(Rng, ForkDependsOnParentState) {
  // Forking after consuming parent output yields a different substream:
  // the child is keyed on the parent's *current* state, not its seed.
  Rng fresh(1);
  Rng advanced(1);
  (void)advanced.next_u64();
  Rng a = fresh.fork(3);
  Rng b = advanced.fork(3);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Hex, Formatting) {
  EXPECT_EQ(hex32(0xDEADBEEF), "deadbeef");
  EXPECT_EQ(hex32(0x1), "00000001");
  EXPECT_EQ(hex64(0x123456789ABCDEFull), "0123456789abcdef");
  EXPECT_EQ(hex32_0x(0xFF), "0x000000ff");
}

TEST(Hex, DumpWords) {
  const std::uint32_t words[] = {1, 2, 3, 4, 5};
  const std::string dump = hexdump_words(words, 0x100);
  EXPECT_NE(dump.find("00000100: 00000001 00000002 00000003 00000004"),
            std::string::npos);
  EXPECT_NE(dump.find("00000110: 00000005"), std::string::npos);
}

TEST(Io, RoundTripsBinaryContentExactly) {
  const std::string path =
      "/tmp/sofia_io_test_" + std::to_string(getpid()) + ".bin";
  // Embedded NUL, CR and LF: a text-mode read would mangle at least one.
  const std::string content("a\0b\r\nc\r", 7);
  io::write_file(path, content);
  EXPECT_EQ(io::read_file(path), content);
  const auto bytes = io::read_file_bytes(path);
  ASSERT_EQ(bytes.size(), content.size());
  EXPECT_EQ(bytes[1], 0u);
  io::write_file(path, std::vector<std::uint8_t>{0xDE, 0xAD});
  EXPECT_EQ(io::read_file(path), std::string("\xDE\xAD"));
  std::remove(path.c_str());
}

TEST(Io, FailuresNameThePath) {
  try {
    io::read_file("/nonexistent/sofia/x.txt");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/sofia/x.txt"),
              std::string::npos)
        << e.what();
  }
  try {
    io::write_file("/nonexistent/sofia/x.txt", "data");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/sofia/x.txt"),
              std::string::npos)
        << e.what();
  }
  // A full device: the write itself may be accepted into the buffer, but
  // the post-flush stream check must report failure.
  EXPECT_THROW(io::write_file("/dev/full", "data"), Error);
}

// NIST FIPS 180-4 / CAVP short-message vectors. The result cache keys every
// entry by these digests, so a wrong hash silently poisons the cache.
TEST(Sha256, NistShortVectors) {
  EXPECT_EQ(support::sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(support::sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // The two-block message from FIPS 180-4 appendix B.2.
  EXPECT_EQ(support::sha256_hex(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // The four-block message from the NIST examples (SHA256.pdf, example 3
  // input reused at 112 bytes).
  EXPECT_EQ(support::sha256_hex("abcdefghbcdefghicdefghijdefghijkefghijklfghi"
                                "jklmghijklmnhijklmnoijklmnopjklmnopqklmnopqr"
                                "lmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256, MillionRepeatedA) {
  support::Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(support::to_hex(h.digest()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShotAtEveryChunkSplit) {
  std::string message;
  for (int i = 0; i < 200; ++i) message += static_cast<char>(i * 7 + 3);
  const auto expect = support::sha256(message);
  // Splits straddling the 64-byte block boundary are the interesting ones.
  for (std::size_t split = 0; split <= message.size(); split += 13) {
    support::Sha256 h;
    h.update(std::string_view(message).substr(0, split));
    h.update(std::string_view(message).substr(split));
    EXPECT_EQ(h.digest(), expect) << "split at " << split;
  }
}

TEST(Sha256, UpdateAfterDigestThrows) {
  support::Sha256 h;
  h.update("abc");
  (void)h.digest();
  EXPECT_THROW(h.update("more"), Error);
}

TEST(Sha256, ToHexIsLowercase64Chars) {
  const auto d = support::sha256("abc");
  const std::string hex = support::to_hex(d);
  ASSERT_EQ(hex.size(), 64u);
  for (const char c : hex)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
}

TEST(Json, AsUintRejectsNegativeNumbers) {
  // strtoull alone would wrap "-1" to 2^64-1 without an error.
  EXPECT_EQ(json::parse("7").as_uint("n"), 7u);
  EXPECT_THROW(json::parse("-1").as_uint("n"), Error);
  EXPECT_THROW(json::parse("-0").as_uint("n"), Error);
  EXPECT_THROW(json::parse("-18446744073709551615").as_uint("n"), Error);
}

TEST(Json, ParseBoundsNestingDepth) {
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(json::parse(arrays(json::kMaxDepth)));
  EXPECT_THROW(json::parse(arrays(json::kMaxDepth + 1)), Error);
  std::string objects;
  for (std::size_t i = 0; i <= json::kMaxDepth; ++i) objects += "{\"a\":";
  objects += "0" + std::string(json::kMaxDepth + 1, '}');
  EXPECT_THROW(json::parse(objects), Error);
  // Far past the bound: an error, not a stack overflow.
  try {
    json::parse(std::string(200'000, '['));
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace sofia
