#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "crypto/block_cipher.hpp"
#include "crypto/cbc_mac.hpp"
#include "crypto/cipher_key.hpp"
#include "crypto/ctr.hpp"
#include "crypto/key_set.hpp"
#include "crypto/rectangle80.hpp"
#include "crypto/speck64.hpp"
#include "support/rng.hpp"

namespace sofia::crypto {
namespace {

// ---------------------------------------------------------------------------
// SPECK-64/128: published test vector (Beaulieu et al., "The SIMON and SPECK
// Families of Lightweight Block Ciphers", 2013, Appendix C).
// ---------------------------------------------------------------------------

TEST(Speck64, PublishedTestVector) {
  // Key = 1b1a1918 13121110 0b0a0908 03020100 (l2 l1 l0 k0)
  // Plaintext = 3b726574 7475432d, Ciphertext = 8c6fa548 454e028b
  CipherKey key{};
  const std::uint32_t kw[4] = {0x03020100u, 0x0b0a0908u, 0x13121110u, 0x1b1a1918u};
  for (int i = 0; i < 4; ++i)
    for (int b = 0; b < 4; ++b)
      key[static_cast<std::size_t>(4 * i + b)] =
          static_cast<std::uint8_t>(kw[i] >> (8 * b));
  Speck64 cipher(key);
  const std::uint64_t pt = (static_cast<std::uint64_t>(0x3b726574u) << 32) | 0x7475432du;
  const std::uint64_t ct = (static_cast<std::uint64_t>(0x8c6fa548u) << 32) | 0x454e028bu;
  EXPECT_EQ(cipher.encrypt(pt), ct);
  EXPECT_EQ(cipher.decrypt(ct), pt);
}

// ---------------------------------------------------------------------------
// Structural properties shared by both ciphers.
// ---------------------------------------------------------------------------

class CipherProperty : public ::testing::TestWithParam<CipherKind> {
 protected:
  std::unique_ptr<BlockCipher64> make(std::uint64_t seed = 1) const {
    Rng rng(seed);
    CipherKey key{};
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u32());
    return make_cipher(GetParam(), key);
  }
};

TEST_P(CipherProperty, DecryptInvertsEncrypt) {
  const auto cipher = make();
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t pt = rng.next_u64();
    EXPECT_EQ(cipher->decrypt(cipher->encrypt(pt)), pt);
  }
}

TEST_P(CipherProperty, EncryptIsInjectiveOnSample) {
  const auto cipher = make();
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 2000; ++i)
    outputs.insert(cipher->encrypt(i * 0x9E3779B97F4A7C15ull));
  EXPECT_EQ(outputs.size(), 2000u);
}

TEST_P(CipherProperty, AvalancheOnPlaintextBitFlip) {
  const auto cipher = make();
  Rng rng(5);
  double total_flips = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t pt = rng.next_u64();
    const unsigned bit = static_cast<unsigned>(rng.next_below(64));
    const std::uint64_t a = cipher->encrypt(pt);
    const std::uint64_t b = cipher->encrypt(pt ^ (1ull << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double mean = total_flips / trials;
  // A random permutation flips 32 bits on average; accept a generous band.
  EXPECT_GT(mean, 24.0);
  EXPECT_LT(mean, 40.0);
}

TEST_P(CipherProperty, KeySensitivity) {
  Rng rng(17);
  CipherKey k1{};
  for (auto& b : k1) b = static_cast<std::uint8_t>(rng.next_u32());
  CipherKey k2 = k1;
  k2[3] ^= 0x01;  // single key-bit difference
  const auto c1 = make_cipher(GetParam(), k1);
  const auto c2 = make_cipher(GetParam(), k2);
  int differing = 0;
  for (std::uint64_t i = 0; i < 64; ++i)
    differing += (c1->encrypt(i) != c2->encrypt(i));
  EXPECT_EQ(differing, 64);
}

TEST_P(CipherProperty, NotIdentityOrLinear) {
  const auto cipher = make();
  EXPECT_NE(cipher->encrypt(0), 0u);
  // XOR-linearity check: E(a^b) != E(a)^E(b)^E(0) for random samples.
  Rng rng(3);
  int linear_hits = 0;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    if (cipher->encrypt(a ^ b) ==
        (cipher->encrypt(a) ^ cipher->encrypt(b) ^ cipher->encrypt(0)))
      ++linear_hits;
  }
  EXPECT_EQ(linear_hits, 0);
}

INSTANTIATE_TEST_SUITE_P(AllCiphers, CipherProperty,
                         ::testing::Values(CipherKind::kRectangle80,
                                           CipherKind::kSpeck64_128),
                         [](const auto& info) {
                           return info.param == CipherKind::kRectangle80
                                      ? "Rectangle80"
                                      : "Speck64";
                         });

// ---------------------------------------------------------------------------
// RECTANGLE-80 specifics.
// ---------------------------------------------------------------------------

TEST(Rectangle80, RoundConstantSequenceMatchesLfsr) {
  // First constants of the published 5-bit LFSR sequence.
  const auto rc = Rectangle80::round_constants();
  const std::uint8_t expected[] = {0x01, 0x02, 0x04, 0x09, 0x12, 0x05, 0x0B,
                                   0x16, 0x0C, 0x19, 0x13, 0x07, 0x0F};
  for (std::size_t i = 0; i < std::size(expected); ++i)
    EXPECT_EQ(rc[i], expected[i]) << "RC[" << i << "]";
}

TEST(Rectangle80, RoundConstantsNonRepeatingWithinPeriod) {
  const auto rc = Rectangle80::round_constants();
  std::set<std::uint8_t> seen(rc.begin(), rc.end());
  EXPECT_EQ(seen.size(), rc.size());  // 25 < 31 = LFSR period
}

TEST(Rectangle80, NameAndFactory) {
  const auto c = make_cipher(CipherKind::kRectangle80, make_key(1, 2));
  EXPECT_EQ(c->name(), "RECTANGLE-80");
  EXPECT_EQ(to_string(CipherKind::kRectangle80), "RECTANGLE-80");
  EXPECT_EQ(to_string(CipherKind::kSpeck64_128), "SPECK-64/128");
}

TEST(Rectangle80, PinnedRegressionVectors) {
  // Official test vectors are unavailable offline (DESIGN.md §1); these
  // values pin the implementation's current behavior so that refactoring
  // cannot silently change the cipher (which would break every transformed
  // binary in the field).
  Rectangle80 zero(make_key(0, 0));
  EXPECT_EQ(zero.encrypt(0), 0x0874e8b1e3542d96ull);
  EXPECT_EQ(zero.encrypt(1), 0xb17f5eb0e6abccd3ull);
  Rectangle80 keyed(make_key(0x0123456789ABCDEFull, 0x0000000000004455ull));
  EXPECT_EQ(keyed.encrypt(0x0011223344556677ull), 0xa8d2bc604ff8d7ffull);
  EXPECT_EQ(keyed.decrypt(0xa8d2bc604ff8d7ffull), 0x0011223344556677ull);
}

TEST(Rectangle80, ChainedGoldenTable) {
  // Per key: 256 chained encryptions (x <- E(x)) and, separately, 256
  // chained decryptions (y <- D(y)) from `start`. Pinned are the last value
  // of each chain and an order-sensitive fold of all 256 values, captured
  // from the table-driven implementation the bitsliced one replaced.
  struct Golden {
    std::uint64_t key_lo, key_hi, start;
    std::uint64_t enc_last, enc_fold, dec_last, dec_fold;
  };
  constexpr Golden kTable[] = {
      {0x0000000000000000ull, 0x0000ull, 0x0000000000000000ull,
       0xc6852f5f803e0748ull, 0x430988d6f5f57010ull, 0x8548452bb041b5faull,
       0x9af6f2f37258161aull},
      {0x0123456789abcdefull, 0x4455ull, 0x0011223344556677ull,
       0x6a8100d735634a9aull, 0x3265b7f7387a6eeaull, 0x22912836518e52e7ull,
       0x6058c59fa4f6ca92ull},
      {0xffffffffffffffffull, 0xffffull, 0xffffffffffffffffull,
       0xde68bf92a67209a0ull, 0x687dd28f88f3f9abull, 0xb7579e300b2c3156ull,
       0x2a87cf7bee9a2f45ull},
      {0x5a5aa5a5c3c33c3cull, 0x9e37ull, 0x8000000000000001ull,
       0x22257dc632a1414eull, 0x4b4ad6c62a15b6aaull, 0xfce5f14cd78b1c34ull,
       0xb143fde18039766eull},
  };
  constexpr std::uint64_t kFoldMul = 0x9E3779B97F4A7C15ull;
  for (const Golden& g : kTable) {
    const Rectangle80 cipher(make_key(g.key_lo, g.key_hi));
    std::uint64_t x = g.start, enc_fold = 0;
    std::uint64_t y = g.start, dec_fold = 0;
    for (int i = 0; i < 256; ++i) {
      x = cipher.encrypt(x);
      enc_fold = (enc_fold ^ x) * kFoldMul;
      y = cipher.decrypt(y);
      dec_fold = (dec_fold ^ y) * kFoldMul;
    }
    EXPECT_EQ(x, g.enc_last) << std::hex << g.key_lo;
    EXPECT_EQ(enc_fold, g.enc_fold) << std::hex << g.key_lo;
    EXPECT_EQ(y, g.dec_last) << std::hex << g.key_lo;
    EXPECT_EQ(dec_fold, g.dec_fold) << std::hex << g.key_lo;
  }
}

TEST(Rectangle80, OnlyFirstTenKeyBytesMatter) {
  CipherKey a = make_key(0x1111111111111111ull, 0x2222222222222222ull);
  CipherKey b = a;
  b[10] ^= 0xFF;  // beyond the 80-bit key
  b[15] ^= 0xFF;
  Rectangle80 ca(a), cb(b);
  for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(ca.encrypt(i), cb.encrypt(i));
  b = a;
  b[9] ^= 0x01;  // inside the 80-bit key
  Rectangle80 cc(b);
  EXPECT_NE(ca.encrypt(0), cc.encrypt(0));
}

// ---------------------------------------------------------------------------
// SOFIA CTR counter construction.
// ---------------------------------------------------------------------------

TEST(Ctr, CounterPackingLayout) {
  const std::uint64_t c = pack_counter(0xABCD, 0x123456, 0x654321);
  EXPECT_EQ(c >> 48, 0xABCDu);
  EXPECT_EQ((c >> 24) & 0xFFFFFF, 0x123456u);
  EXPECT_EQ(c & 0xFFFFFF, 0x654321u);
}

TEST(Ctr, CounterTruncatesAddressesTo24Bits) {
  EXPECT_EQ(pack_counter(0, 0xFF123456, 0xEE654321),
            pack_counter(0, 0x123456, 0x654321));
}

TEST(Ctr, DistinctCountersForDistinctEdges) {
  // The CFI property rests on counter uniqueness per (prev, cur) pair.
  std::set<std::uint64_t> counters;
  for (std::uint32_t prev = 0; prev < 40; ++prev)
    for (std::uint32_t cur = 0; cur < 40; ++cur)
      counters.insert(pack_counter(7, prev, cur));
  EXPECT_EQ(counters.size(), 1600u);
}

TEST(Ctr, KeystreamDependsOnAllCounterFields) {
  const auto cipher = make_cipher(CipherKind::kSpeck64_128, make_key(42, 43));
  const std::uint32_t base = keystream32(*cipher, 1, 2, 3);
  EXPECT_NE(keystream32(*cipher, 9, 2, 3), base);
  EXPECT_NE(keystream32(*cipher, 1, 9, 3), base);
  EXPECT_NE(keystream32(*cipher, 1, 2, 9), base);
}

TEST(Ctr, XorRoundTripsInstruction) {
  const auto cipher = make_cipher(CipherKind::kRectangle80, make_key(7, 8));
  const std::uint32_t inst = 0x0880C001u;
  const std::uint32_t ks = keystream32(*cipher, 0x5AFE, 0x10, 0x11);
  const std::uint32_t enc = inst ^ ks;
  EXPECT_NE(enc, inst);
  EXPECT_EQ(enc ^ keystream32(*cipher, 0x5AFE, 0x10, 0x11), inst);
}

TEST(Ctr, GranularityNames) {
  EXPECT_EQ(to_string(Granularity::kPerWord), "per-word");
  EXPECT_EQ(to_string(Granularity::kPerPair), "per-pair");
}

// ---------------------------------------------------------------------------
// CBC-MAC.
// ---------------------------------------------------------------------------

TEST(CbcMac, MatchesManualChaining) {
  const auto cipher = make_cipher(CipherKind::kSpeck64_128, make_key(1, 2));
  const std::uint32_t words[] = {0x11111111, 0x22222222, 0x33333333, 0x44444444};
  const std::uint64_t m0 = 0x2222222211111111ull;
  const std::uint64_t m1 = 0x4444444433333333ull;
  // Data blocks chain as before; the word count is a final block of its own.
  const std::uint64_t data_chain = cipher->encrypt(cipher->encrypt(m0) ^ m1);
  EXPECT_EQ(cbc_mac64(*cipher, words), cipher->encrypt(data_chain ^ 4));
}

TEST(CbcMac, ZeroPaddingDoesNotCollide) {
  // Regression: plain zero padding made {w} and {w, 0} chain through the
  // same final block and collide; the length block keeps them apart.
  const auto cipher = make_cipher(CipherKind::kSpeck64_128, make_key(1, 2));
  const std::uint32_t one[] = {0xAAAAAAAA};
  const std::uint32_t one_padded[] = {0xAAAAAAAA, 0};
  EXPECT_NE(cbc_mac64(*cipher, one), cbc_mac64(*cipher, one_padded));

  const std::uint32_t odd[] = {0xAAAAAAAA, 0xBBBBBBBB, 0xCCCCCCCC};
  const std::uint32_t padded[] = {0xAAAAAAAA, 0xBBBBBBBB, 0xCCCCCCCC, 0};
  EXPECT_NE(cbc_mac64(*cipher, odd), cbc_mac64(*cipher, padded));
}

TEST(CbcMac, TrailingWordCannotCancelTheLengthBlock) {
  // An in-block length fold would still let {w} collide with {w, x} for
  // x == len ^ (len + 1); the dedicated length block is data-independent.
  const auto cipher = make_cipher(CipherKind::kSpeck64_128, make_key(1, 2));
  const std::uint32_t one[] = {0xAAAAAAAA};
  for (const std::uint32_t x : {1u, 2u, 3u, 0xFFFFFFFFu}) {
    const std::uint32_t two[] = {0xAAAAAAAA, x};
    EXPECT_NE(cbc_mac64(*cipher, one), cbc_mac64(*cipher, two)) << x;
  }
}

TEST(CbcMac, EmptyMessageIsZeroChain) {
  const auto cipher = make_cipher(CipherKind::kSpeck64_128, make_key(1, 2));
  EXPECT_EQ(cbc_mac64(*cipher, {}), 0u);
}

TEST(CbcMac, SensitiveToEveryWord) {
  const auto cipher = make_cipher(CipherKind::kRectangle80, make_key(3, 4));
  std::vector<std::uint32_t> words = {1, 2, 3, 4, 5, 6};
  const std::uint64_t base = cbc_mac64(*cipher, words);
  for (std::size_t i = 0; i < words.size(); ++i) {
    auto tampered = words;
    tampered[i] ^= 0x400;
    EXPECT_NE(cbc_mac64(*cipher, tampered), base) << "word " << i;
  }
}

TEST(CbcMac, SensitiveToWordOrder) {
  const auto cipher = make_cipher(CipherKind::kRectangle80, make_key(3, 4));
  const std::uint32_t a[] = {1, 2, 3, 4, 5, 6};
  const std::uint32_t b[] = {1, 2, 5, 6, 3, 4};  // swapped cipher blocks
  EXPECT_NE(cbc_mac64(*cipher, a), cbc_mac64(*cipher, b));
}

TEST(CbcMac, KeySeparation) {
  // The paper uses distinct keys per block type; same message must yield
  // unrelated tags under k2 vs k3.
  Rng rng(21);
  const auto ks = KeySet::random(CipherKind::kSpeck64_128, rng);
  const auto exec_cipher = ks.exec_mac_cipher();
  const auto mux_cipher = ks.mux_mac_cipher();
  const std::uint32_t words[] = {10, 20, 30, 40, 50, 60};
  EXPECT_NE(cbc_mac64(*exec_cipher, words), cbc_mac64(*mux_cipher, words));
}

TEST(CbcMac, TagWordSplit) {
  const std::uint64_t tag = 0x1122334455667788ull;
  EXPECT_EQ(mac_word1(tag), 0x55667788u);
  EXPECT_EQ(mac_word2(tag), 0x11223344u);
  EXPECT_EQ((static_cast<std::uint64_t>(mac_word2(tag)) << 32) | mac_word1(tag), tag);
}

TEST(CbcMac, Truncation) {
  EXPECT_EQ(truncate_tag(0xFFFFFFFFFFFFFFFFull, 8), 0xFFull);
  EXPECT_EQ(truncate_tag(0x1234567890ABCDEFull, 16), 0xCDEFull);
  EXPECT_EQ(truncate_tag(0x1234567890ABCDEFull, 64), 0x1234567890ABCDEFull);
}

// ---------------------------------------------------------------------------
// KeySet.
// ---------------------------------------------------------------------------

TEST(KeySet, RandomIsDeterministicPerSeed) {
  Rng a(5), b(5);
  const auto ka = KeySet::random(CipherKind::kRectangle80, a);
  const auto kb = KeySet::random(CipherKind::kRectangle80, b);
  EXPECT_EQ(ka.k1, kb.k1);
  EXPECT_EQ(ka.k2, kb.k2);
  EXPECT_EQ(ka.k3, kb.k3);
  EXPECT_EQ(ka.omega, kb.omega);
}

TEST(KeySet, ThreeDistinctKeys) {
  Rng rng(6);
  const auto ks = KeySet::random(CipherKind::kRectangle80, rng);
  EXPECT_NE(ks.k1, ks.k2);
  EXPECT_NE(ks.k2, ks.k3);
  EXPECT_NE(ks.k1, ks.k3);
}

TEST(KeySet, ExampleIsStable) {
  const auto a = KeySet::example(CipherKind::kRectangle80);
  const auto b = KeySet::example(CipherKind::kRectangle80);
  EXPECT_EQ(a.k1, b.k1);
  EXPECT_EQ(a.omega, 0x5AFE);
}

}  // namespace
}  // namespace sofia::crypto
