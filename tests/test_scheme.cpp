// The protection-scheme layer: registry contract, the sofia-cbcmac
// extraction goldens (hardened images and RunResults captured before
// src/scheme/ existed — the refactor must be invisible), and the
// differential tamper suite across every scheme x cipher x backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "scheme/scheme.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "verify/verify.hpp"
#include "workloads/workloads.hpp"
#include "xform/transform.hpp"

namespace {

using namespace sofia;

std::uint64_t fnv1a(const std::vector<std::uint32_t>& words) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint32_t w : words) {
    for (int b = 0; b < 4; ++b) {
      h ^= (w >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// ---- registry contract -----------------------------------------------------

TEST(SchemeRegistry, ListsTheBuiltInsInStableOrder) {
  const auto& reg = scheme::scheme_registry();
  ASSERT_EQ(reg.size(), 4u);
  EXPECT_EQ(reg[0].name(), "sofia-cbcmac");
  EXPECT_EQ(reg[1].name(), "sponge");
  EXPECT_EQ(reg[2].name(), "null");
  EXPECT_EQ(reg[3].name(), "flta");
  EXPECT_EQ(reg[0].name(), scheme::kDefaultScheme);
  for (const auto& entry : reg)
    EXPECT_EQ(&scheme::get_scheme(entry.name()), &entry);
  EXPECT_EQ(scheme::scheme_names(),
            (std::vector<std::string>{"sofia-cbcmac", "sponge", "null",
                                      "flta"}));
}

TEST(SchemeRegistry, LookupAcceptsKeysAndRejectsUnknown) {
  for (const auto& name : scheme::scheme_names())
    EXPECT_EQ(scheme::get_scheme(name).name(), name);
  EXPECT_THROW(scheme::get_scheme("cbc"), Error);
  EXPECT_THROW(scheme::get_scheme(""), Error);
  try {
    scheme::get_scheme("hmac");
    FAIL() << "unknown scheme must throw";
  } catch (const Error& e) {
    // The error must list the registered names (the CLI relies on it).
    EXPECT_NE(std::string(e.what()).find("sofia-cbcmac"), std::string::npos)
        << e.what();
  }
}

TEST(SchemeRegistry, Traits) {
  EXPECT_TRUE(scheme::get_scheme("sofia-cbcmac").traits().authenticated);
  EXPECT_TRUE(scheme::get_scheme("sofia-cbcmac").traits().uses_granularity);
  EXPECT_TRUE(scheme::get_scheme("sponge").traits().authenticated);
  EXPECT_FALSE(scheme::get_scheme("sponge").traits().uses_granularity);
  EXPECT_FALSE(scheme::get_scheme("null").traits().authenticated);
  EXPECT_TRUE(scheme::get_scheme("null").traits().uses_granularity);
}

// sim::SimConfig cannot name scheme::kDefaultScheme (layering); its literal
// default must stay equal to it, as must every other layer's default.
TEST(SchemeRegistry, DefaultsAgreeAcrossLayers) {
  EXPECT_EQ(sim::SimConfig{}.scheme, scheme::kDefaultScheme);
  EXPECT_EQ(pipeline::DeviceProfile{}.scheme, scheme::kDefaultScheme);
  EXPECT_EQ(xform::Options{}.scheme, scheme::kDefaultScheme);
}

TEST(SchemeRegistry, DeviceProfileParseAndFingerprint) {
  EXPECT_EQ(pipeline::DeviceProfile::parse_scheme("sponge"), "sponge");
  EXPECT_THROW(pipeline::DeviceProfile::parse_scheme("bogus"), Error);

  // The scheme axis is named unconditionally — even at the default — so
  // fingerprints from mixed-scheme sweeps can never collide.
  const auto fp = pipeline::DeviceProfile::paper_default().fingerprint();
  EXPECT_NE(fp.find("scheme=sofia-cbcmac"), std::string::npos) << fp;
  pipeline::DeviceProfile sponge = pipeline::DeviceProfile::paper_default();
  sponge.scheme = "sponge";
  EXPECT_NE(sponge.fingerprint().find("scheme=sponge"), std::string::npos);
  EXPECT_NE(sponge.to_json().find("\"scheme\":\"sponge\""), std::string::npos)
      << sponge.to_json();
}

TEST(SchemeRegistry, PipelineResolvesAndRejectsEarly) {
  pipeline::DeviceProfile p = pipeline::DeviceProfile::paper_default();
  auto good = pipeline::Pipeline::from_workload("fib", 1, 8, p);
  EXPECT_EQ(good.scheme().name(), "sofia-cbcmac");
  p.scheme = "no-such-scheme";
  auto bad = pipeline::Pipeline::from_workload("fib", 1, 8, p);
  EXPECT_THROW(bad.scheme(), Error);
  EXPECT_THROW(bad.run(), Error);
}

// ---- entry paths -----------------------------------------------------------

TEST(EntryPath, ExecutionEntryFetchesEveryWordInOrder) {
  const auto p = scheme::entry_path(0, 8);
  EXPECT_FALSE(p.is_mux);
  EXPECT_EQ(p.entry_word_index, 0u);
  EXPECT_EQ(p.first_inst, 2u);
  EXPECT_EQ(p.sched, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EntryPath, MuxPath1SkipsTheOtherHeaderWord) {
  const auto p = scheme::entry_path(1, 8);
  EXPECT_TRUE(p.is_mux);
  EXPECT_EQ(p.entry_word_index, 0u);
  EXPECT_EQ(p.first_inst, 3u);
  EXPECT_EQ(p.sched, (std::vector<std::uint32_t>{0, 2, 3, 4, 5, 6, 7}));
}

TEST(EntryPath, MuxPath2StartsAtWord1) {
  const auto p = scheme::entry_path(2, 8);
  EXPECT_TRUE(p.is_mux);
  EXPECT_EQ(p.entry_word_index, 1u);
  EXPECT_EQ(p.first_inst, 3u);
  EXPECT_EQ(p.sched, (std::vector<std::uint32_t>{1, 2, 3, 4, 5, 6, 7}));
}

// ---- sofia-cbcmac extraction goldens ---------------------------------------

struct GoldenStats {
  int status;
  int exit_code;
  std::uint64_t cycles, insts, nops, ctr_ops, cbc_ops, mac_verifications,
      store_gate_stalls;
};

struct GoldenRow {
  const char* workload;
  int cipher;       // crypto::CipherKind
  int granularity;  // crypto::Granularity
  std::uint64_t image_hash;
  GoldenStats cycle;
  GoldenStats functional;
};

// Captured from the pre-refactor tree (seed=1, size=16, example keys),
// before block sealing/opening moved into src/scheme/. Byte-identical
// images and identical RunResults on both backends are the refactor's
// central acceptance criterion.
const GoldenRow kGoldens[] = {
    {"fib", 0, 1, 0x27c31311d86f91ecull,
     {0, 0, 150151ull, 78237ull, 41517ull, 57480ull, 43110ull, 14370ull, 6384ull},
     {0, 0, 78237ull, 78237ull, 41517ull, 48ull, 36ull, 12ull, 0ull}},
    {"fib", 0, 0, 0x2b87bf806aed76e7ull,
     {0, 0, 249087ull, 78237ull, 41517ull, 119753ull, 47901ull, 15967ull, 19145ull},
     {0, 0, 78237ull, 78237ull, 41517ull, 90ull, 36ull, 12ull, 0ull}},
    {"fib", 1, 1, 0xeb9618a1a6ba1610ull,
     {0, 0, 150151ull, 78237ull, 41517ull, 57480ull, 43110ull, 14370ull, 6384ull},
     {0, 0, 78237ull, 78237ull, 41517ull, 48ull, 36ull, 12ull, 0ull}},
    {"fib", 1, 0, 0x76f6b60a15e4fb5full,
     {0, 0, 249087ull, 78237ull, 41517ull, 119753ull, 47901ull, 15967ull, 19145ull},
     {0, 0, 78237ull, 78237ull, 41517ull, 90ull, 36ull, 12ull, 0ull}},
    {"crc32", 0, 1, 0x29373121d49e1955ull,
     {0, 0, 3825ull, 1882ull, 843ull, 1436ull, 1077ull, 359ull, 0ull},
     {0, 0, 1882ull, 1882ull, 843ull, 40ull, 30ull, 10ull, 0ull}},
    {"crc32", 0, 0, 0xe187c9d04d585516ull,
     {0, 0, 6123ull, 1882ull, 843ull, 4072ull, 1629ull, 543ull, 2ull},
     {0, 0, 1882ull, 1882ull, 843ull, 74ull, 30ull, 10ull, 0ull}},
    {"crc32", 1, 1, 0xc97e7735743b7298ull,
     {0, 0, 3825ull, 1882ull, 843ull, 1436ull, 1077ull, 359ull, 0ull},
     {0, 0, 1882ull, 1882ull, 843ull, 40ull, 30ull, 10ull, 0ull}},
    {"crc32", 1, 0, 0x6f3a3bca48490c22ull,
     {0, 0, 6123ull, 1882ull, 843ull, 4072ull, 1629ull, 543ull, 2ull},
     {0, 0, 1882ull, 1882ull, 843ull, 74ull, 30ull, 10ull, 0ull}},
    {"bitcount", 0, 1, 0x8926caee552dd941ull,
     {0, 0, 5373ull, 3183ull, 1753ull, 2320ull, 1740ull, 580ull, 1ull},
     {0, 0, 3183ull, 3183ull, 1753ull, 32ull, 24ull, 8ull, 0ull}},
    {"bitcount", 0, 0, 0x5c2cbf5d78154259ull,
     {0, 0, 9379ull, 3183ull, 1753ull, 4583ull, 1830ull, 610ull, 6ull},
     {0, 0, 3183ull, 3183ull, 1753ull, 60ull, 24ull, 8ull, 0ull}},
    {"bitcount", 1, 1, 0x5f4dacbb8ad45d5aull,
     {0, 0, 5373ull, 3183ull, 1753ull, 2320ull, 1740ull, 580ull, 1ull},
     {0, 0, 3183ull, 3183ull, 1753ull, 32ull, 24ull, 8ull, 0ull}},
    {"bitcount", 1, 0, 0x5f1bc640be0173f0ull,
     {0, 0, 9379ull, 3183ull, 1753ull, 4583ull, 1830ull, 610ull, 6ull},
     {0, 0, 3183ull, 3183ull, 1753ull, 60ull, 24ull, 8ull, 0ull}},
    {"matmul", 0, 1, 0x188bcd89e04fe59bull,
     {0, 0, 98657ull, 51132ull, 14181ull, 52356ull, 39267ull, 13089ull, 2ull},
     {0, 0, 51132ull, 51132ull, 14181ull, 52ull, 39ull, 13ull, 0ull}},
    {"matmul", 0, 0, 0x1bbdc962de8e094cull,
     {0, 0, 156197ull, 51132ull, 14181ull, 102384ull, 40032ull, 13344ull, 6ull},
     {0, 0, 51132ull, 51132ull, 14181ull, 98ull, 39ull, 13ull, 0ull}},
    {"matmul", 1, 1, 0x8d170a7f9df57cafull,
     {0, 0, 98657ull, 51132ull, 14181ull, 52356ull, 39267ull, 13089ull, 2ull},
     {0, 0, 51132ull, 51132ull, 14181ull, 52ull, 39ull, 13ull, 0ull}},
    {"matmul", 1, 0, 0xbdcc3eadaa050962ull,
     {0, 0, 156197ull, 51132ull, 14181ull, 102384ull, 40032ull, 13344ull, 6ull},
     {0, 0, 51132ull, 51132ull, 14181ull, 98ull, 39ull, 13ull, 0ull}},
};

void expect_stats(const GoldenStats& g, const sim::RunResult& r,
                  const std::string& label) {
  EXPECT_EQ(static_cast<int>(r.status), g.status) << label;
  EXPECT_EQ(r.exit_code, g.exit_code) << label;
  EXPECT_EQ(r.stats.cycles, g.cycles) << label;
  EXPECT_EQ(r.stats.insts, g.insts) << label;
  EXPECT_EQ(r.stats.nops, g.nops) << label;
  EXPECT_EQ(r.stats.ctr_ops, g.ctr_ops) << label;
  EXPECT_EQ(r.stats.cbc_ops, g.cbc_ops) << label;
  EXPECT_EQ(r.stats.mac_verifications, g.mac_verifications) << label;
  EXPECT_EQ(r.stats.store_gate_stalls, g.store_gate_stalls) << label;
}

TEST(CbcmacGoldens, ImagesAndRunsMatchThePreRefactorCapture) {
  for (const auto& row : kGoldens) {
    pipeline::DeviceProfile profile = pipeline::DeviceProfile::example(
        static_cast<crypto::CipherKind>(row.cipher));
    profile.granularity = static_cast<crypto::Granularity>(row.granularity);
    const std::string label = std::string(row.workload) + " cipher=" +
                              std::to_string(row.cipher) + " gran=" +
                              std::to_string(row.granularity);

    auto p = pipeline::Pipeline::from_workload(row.workload, 1, 16, profile);
    EXPECT_EQ(fnv1a(p.hardened().image.text), row.image_hash) << label;
    expect_stats(row.cycle, p.run(), label + " backend=cycle");

    pipeline::DeviceProfile fp = profile;
    fp.backend = "functional";
    auto pf = pipeline::Pipeline::from_workload(row.workload, 1, 16, fp);
    expect_stats(row.functional, pf.run(), label + " backend=functional");
  }
}

// ---- every scheme's sealed and opened bytes --------------------------------

// One FNV-1a digest per workload x scheme x cipher x granularity at smoke
// size. It covers the hardened image, every block's pre-encryption view
// and every field of the DeviceBlock that each valid entry path opens to,
// from the sealed words and from the same words with one bit flipped. The
// digests were recorded before sofia-cbcmac, flta and null shared one CTR
// sealer and opener: any change to a sealed byte, a verdict, a gate label
// or an op list the cycle model replays shows here.
class BlockDigest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(values.size());
    for (const T v : values) add(v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void add_opened(BlockDigest& d, const scheme::DeviceBlock& dev) {
  d.add(static_cast<std::uint64_t>(dev.verify_cause));
  d.add(dev.first_inst);
  d.add_all(dev.plain);
  for (const auto* ops : {&dev.decrypt_ops, &dev.verify_ops}) {
    d.add(ops->size());
    for (const scheme::OpSpan& op : *ops) {
      d.add(op.first);
      d.add(op.count);
    }
  }
  d.add_all(dev.verify_extra_words);
  for (const std::uint64_t v :
       {std::uint64_t{dev.serial_decrypt}, std::uint64_t{dev.performs_verify},
        std::uint64_t{dev.header_words}, std::uint64_t{dev.gate_indirect},
        std::uint64_t{dev.entry_label}, std::uint64_t{dev.exit_label}})
    d.add(v);
}

std::uint64_t sealed_and_opened_digest(const workloads::WorkloadSpec& wl,
                                       const std::string& scheme_name,
                                       crypto::CipherKind cipher,
                                       crypto::Granularity gran) {
  pipeline::DeviceProfile profile = pipeline::DeviceProfile::example(cipher);
  profile.scheme = scheme_name;
  profile.granularity = gran;
  // The sweep's --smoke size for this workload.
  auto p = pipeline::Pipeline::from_workload(
      wl, 1, std::max(4u, wl.default_size / 16), profile);
  const xform::TransformResult& hard = p.hardened();
  const crypto::KeySet keys = profile.keys();
  const auto opener = scheme::get_scheme(scheme_name)
                          .make_opener(keys, hard.image.omega, gran);
  const std::uint32_t b = hard.layout.policy().words_per_block;

  BlockDigest d;
  d.add_all(hard.image.text);
  d.add_all(hard.image.data);
  std::uint32_t at = 0;  // the block's first word in image.text
  for (const xform::Block& block : hard.layout.blocks()) {
    d.add_all(xform::block_plaintext(hard.layout, block, keys, scheme_name));
    const std::uint32_t index = at / b;
    const std::vector<std::uint32_t> offsets =
        block.kind == xform::BlockKind::kMux ? std::vector<std::uint32_t>{1, 2}
                                             : std::vector<std::uint32_t>{0};
    for (const std::uint32_t offset : offsets) {
      const scheme::EntryPath path = scheme::entry_path(offset, b);
      const std::uint32_t prev =
          offset == 2 ? block.pred2_word : block.pred1_word;
      std::vector<std::uint32_t> raw(b, 0);
      for (const std::uint32_t j : path.sched) raw[j] = hard.image.text[at + j];
      add_opened(d, opener->open(block.base_word, prev, path, raw));
      // The flipped word and bit move over header and body block by block.
      raw[path.sched[index % path.sched.size()]] ^= 1u << (index * 5 % 32);
      add_opened(d, opener->open(block.base_word, prev, path, raw));
    }
    at += b;
  }
  return d.value();
}

struct SealedRow {
  const char* workload;
  const char* scheme;
  /// RECTANGLE-80 per-pair, per-word; Speck64 per-pair, per-word.
  std::uint64_t digest[4];
};

const SealedRow kSealedDigests[] = {
    {"adpcm_encode", "sofia-cbcmac",
     {0xbf16bd140c46e5d9ull, 0x9d30c4f7d34c648dull,
      0xbd451c6a56680845ull, 0x993176c30c6dc3a4ull}},
    {"adpcm_encode", "sponge",
     {0xb9e28d18a1763cd9ull, 0xb9e28d18a1763cd9ull,
      0xbbe5f17bcb7b1777ull, 0xbbe5f17bcb7b1777ull}},
    {"adpcm_encode", "null",
     {0xc3e1633b5c3c0bb1ull, 0x49cb7858dc7ee861ull,
      0xaffe4e8be489179dull, 0x1a9b1e386be1f5bcull}},
    {"adpcm_encode", "flta",
     {0xd1cf9c489520e202ull, 0xe527ec3991c78576ull,
      0x323597d610e67a26ull, 0x564c1d5c051d5ee3ull}},
    {"adpcm_decode", "sofia-cbcmac",
     {0x733caa71450db270ull, 0x69a9860638991e61ull,
      0xee2e9d23640d84e2ull, 0x9c4a5081c0d88e0dull}},
    {"adpcm_decode", "sponge",
     {0xd4d2a84234d1a9efull, 0xd4d2a84234d1a9efull,
      0x35b98b7664e99d54ull, 0x35b98b7664e99d54ull}},
    {"adpcm_decode", "null",
     {0xf39a3bdcec4cd6b1ull, 0x9f453f8841eb0894ull,
      0x657316e1e0257863ull, 0xf3bcdfbb21f941ccull}},
    {"adpcm_decode", "flta",
     {0x54a70fb44e331eb1ull, 0xc64a02a43e1819b4ull,
      0x1e02a17b0d945a2bull, 0xdcf74c5eeb2ba174ull}},
    {"crc32", "sofia-cbcmac",
     {0xc74e7083e0f5e3f2ull, 0xdc60860a0d346f59ull,
      0x7a6111414538fdc7ull, 0x91d370bbbd536e79ull}},
    {"crc32", "sponge",
     {0xb68f7e4635113cc5ull, 0xb68f7e4635113cc5ull,
      0x8785d6d7c385c3d4ull, 0x8785d6d7c385c3d4ull}},
    {"crc32", "null",
     {0x8a9f039efdc25036ull, 0x1254c6e9aa46d001ull,
      0xe60cb3555aabdf43ull, 0x78bd98a45ab4d125ull}},
    {"crc32", "flta",
     {0xbd35c015ad5a4aa2ull, 0x6b1ef2224eb08049ull,
      0xffa98d097ab5e2e7ull, 0xcd12397f3bd9998dull}},
    {"fir", "sofia-cbcmac",
     {0xfa5981bdaef642eaull, 0x9d24c4d83fd201caull,
      0x3d30813615c38196ull, 0x1d728c7f86f29e3full}},
    {"fir", "sponge",
     {0x16af2e33e618c75aull, 0x16af2e33e618c75aull,
      0xb3ca7c954b1f4cfbull, 0xb3ca7c954b1f4cfbull}},
    {"fir", "null",
     {0xd30d9dde01fe25fbull, 0xeea8ac66a334a0b3ull,
      0xcb3d76f600fce747ull, 0x4b167ebdd7ca95eaull}},
    {"fir", "flta",
     {0x1fbc8ca144bf78a6ull, 0x416540305a63d44eull,
      0x531b9bfb3311b37aull, 0xaaa0e15a2caf8bd3ull}},
    {"quicksort", "sofia-cbcmac",
     {0x506e48b0d4763fbcull, 0xa90b9883dc397ff5ull,
      0xdbb39c13436b84f4ull, 0xc9247c5270cd2230ull}},
    {"quicksort", "sponge",
     {0xd41364970e9e3073ull, 0xd41364970e9e3073ull,
      0x966bea7ef919ee6bull, 0x966bea7ef919ee6bull}},
    {"quicksort", "null",
     {0xcf5d6e4e61fda9b1ull, 0xfa17440201c9f464ull,
      0x180aa2642c3f3ed5ull, 0xdba2f3d478bc8875ull}},
    {"quicksort", "flta",
     {0x60ca123ad5a1fee9ull, 0x9f158b4ea52e739cull,
      0x00fbafce1f6582ddull, 0x69f422f6708196b9ull}},
    {"matmul", "sofia-cbcmac",
     {0x38bc4c227a501ee6ull, 0x270cda90bb363fcdull,
      0x397a1cbb6270d54cull, 0x1bdc6eac94edbc51ull}},
    {"matmul", "sponge",
     {0x28aa0cc84d0716b3ull, 0x28aa0cc84d0716b3ull,
      0x2b14af66583668d2ull, 0x2b14af66583668d2ull}},
    {"matmul", "null",
     {0x20214a95b39d734full, 0x626758f1631924b0ull,
      0x3cdd8a9aef4f2ac1ull, 0x915295f1621a4f90ull}},
    {"matmul", "flta",
     {0x6ad3259ff22271eaull, 0x06efacfea02b5bb9ull,
      0xc5ed96bde9a60290ull, 0xcae7336a7a37ac75ull}},
    {"strsearch", "sofia-cbcmac",
     {0xb478dd0330623354ull, 0xd497a9032a478085ull,
      0xeeffc38be9b9e1ddull, 0x44d18c03ba313eb3ull}},
    {"strsearch", "sponge",
     {0xcc25f094b95ca114ull, 0xcc25f094b95ca114ull,
      0xcb643ee449334b8bull, 0xcb643ee449334b8bull}},
    {"strsearch", "null",
     {0xdb84d29e0037b8cdull, 0x6e1b9cb2014a6b10ull,
      0x7b87dfe959d30e74ull, 0xab04bfedd0c1b88aull}},
    {"strsearch", "flta",
     {0x560776ced1d7000cull, 0xe505480f62b2cc01ull,
      0x3ff2e9e122cabfa5ull, 0x634bb19c361b6fffull}},
    {"fib", "sofia-cbcmac",
     {0xfba0303b259141b7ull, 0x3596d5cf53249480ull,
      0x395c33c3df61ed1bull, 0xc2bb7b89bb935bacull}},
    {"fib", "sponge",
     {0xc3abf8d5f39a78c0ull, 0xc3abf8d5f39a78c0ull,
      0xea64f47f05552f2dull, 0xea64f47f05552f2dull}},
    {"fib", "null",
     {0x874c175f1e6fd9d7ull, 0xb74943418b3d33c0ull,
      0xb2e193172dfbe5b7ull, 0xbb9fb139f3a9b98cull}},
    {"fib", "flta",
     {0x137b17f40b618eb6ull, 0x218696a6e046f68dull,
      0x484bbec3265d9436ull, 0x5254e056e5c1afb5ull}},
    {"minivm", "sofia-cbcmac",
     {0xdd33fc7ab5bb8a75ull, 0x3867af61ae342492ull,
      0x7dca8faa52f0b6ceull, 0xac8120c62984d58eull}},
    {"minivm", "sponge",
     {0x5140ab31e0a62ea1ull, 0x5140ab31e0a62ea1ull,
      0x0e3f0dd43d7a0437ull, 0x0e3f0dd43d7a0437ull}},
    {"minivm", "null",
     {0xd2dda3055b73bbbcull, 0x7d7aa1e818257abbull,
      0xe5199c113a685bcfull, 0xeb760c6bd953683bull}},
    {"minivm", "flta",
     {0x8c26f171f0c07a28ull, 0x486383d54dc3ed68ull,
      0x38314adece8e3233ull, 0x03ddefb45887f5fbull}},
    {"bitcount", "sofia-cbcmac",
     {0x2634a429702d3215ull, 0xfeec0f8c586c08adull,
      0x5b672be21056f4b7ull, 0x40b93dc536f5c009ull}},
    {"bitcount", "sponge",
     {0x6b006eee73292ffcull, 0x6b006eee73292ffcull,
      0x8c966d7662e95ce9ull, 0x8c966d7662e95ce9ull}},
    {"bitcount", "null",
     {0x021f1b052dde21b1ull, 0x9707c630f6649989ull,
      0x7f6e46fdefcedda7ull, 0xa94e97e0fb4d2ab5ull}},
    {"bitcount", "flta",
     {0xda511ac2c826dfd9ull, 0x49d9137c3781f6f5ull,
      0x60fead170fe7e7b3ull, 0x2d2d30ed6ae6dbedull}},
    {"dijkstra", "sofia-cbcmac",
     {0xf2321b2ae0fd46f7ull, 0xa2b485e54de8dd19ull,
      0x55b7e9cb218afaf7ull, 0xd0176c945895e1a8ull}},
    {"dijkstra", "sponge",
     {0x6287ca3fe5900772ull, 0x6287ca3fe5900772ull,
      0x4f6430e3d06c8c03ull, 0x4f6430e3d06c8c03ull}},
    {"dijkstra", "null",
     {0xf142fa4e03a8f4aeull, 0x27b3032c2a36d034ull,
      0xc2c08e4f84d133caull, 0xe9c1da8400f014e9ull}},
    {"dijkstra", "flta",
     {0x3fd91dea6a9114efull, 0xbd0a8a8b2e1e4095ull,
      0x05796f3ad3e48437ull, 0x37aeee281cba6ed8ull}},
};

TEST(SchemeDigest, SealedAndOpenedBlocksMatchTheRecordedDigests) {
  std::size_t row = 0;
  for (const auto& wl : workloads::all_workloads()) {
    for (const std::string& name : scheme::scheme_names()) {
      ASSERT_LT(row, std::size(kSealedDigests));
      const SealedRow& want = kSealedDigests[row++];
      std::uint64_t got[4];
      std::size_t i = 0;
      for (const auto cipher : {crypto::CipherKind::kRectangle80,
                                crypto::CipherKind::kSpeck64_128})
        for (const auto gran :
             {crypto::Granularity::kPerPair, crypto::Granularity::kPerWord})
          got[i++] = sealed_and_opened_digest(wl, name, cipher, gran);
      char line[160];
      std::snprintf(line, sizeof line,
                    "{\"%s\", \"%s\",\n {0x%016llxull, 0x%016llxull,\n"
                    "  0x%016llxull, 0x%016llxull}},",
                    wl.name.c_str(), name.c_str(),
                    static_cast<unsigned long long>(got[0]),
                    static_cast<unsigned long long>(got[1]),
                    static_cast<unsigned long long>(got[2]),
                    static_cast<unsigned long long>(got[3]));
      EXPECT_EQ(want.workload, wl.name) << line;
      EXPECT_EQ(want.scheme, name) << line;
      for (std::size_t k = 0; k < 4; ++k)
        EXPECT_EQ(got[k], want.digest[k]) << line;
    }
  }
  EXPECT_EQ(row, std::size(kSealedDigests));
}

// ---- cross-scheme behavior -------------------------------------------------

// sponge derives all keystream from the chained state, so the CTR
// granularity axis must not change the sealed bytes; sofia-cbcmac's must.
// ---- keystream reuse (scheme::OpenedReference) ------------------------------

/// Everything an opened block reports, as one digest.
std::uint64_t opened_digest(const scheme::DeviceBlock& dev) {
  BlockDigest d;
  add_opened(d, dev);
  return d.value();
}

TEST(SchemeOpen, OpeningWithAReferenceEqualsOpeningWithout) {
  // Tampered words opened with the clean opening of the same entry as the
  // reference (the keystream reuse a BlockCache does) must open exactly
  // as without it: plaintext, both op lists, verdict and labels. The
  // reverse too: clean words against a tampered reference. sponge ignores
  // the reference, so it passes trivially.
  Rng rng(7919);
  std::size_t opened = 0;
  for (const std::string& scheme_name : scheme::scheme_names())
    for (const auto cipher : {crypto::CipherKind::kRectangle80,
                              crypto::CipherKind::kSpeck64_128})
      for (const auto gran : {crypto::Granularity::kPerPair,
                              crypto::Granularity::kPerWord})
        for (const char* wl : {"crc32", "fib"}) {
          pipeline::DeviceProfile profile =
              pipeline::DeviceProfile::example(cipher);
          profile.scheme = scheme_name;
          profile.granularity = gran;
          const auto& spec = workloads::workload(wl);
          auto p = pipeline::Pipeline::from_workload(
              spec, 1, std::max(4u, spec.default_size / 16), profile);
          const xform::TransformResult& hard = p.hardened();
          const auto opener =
              scheme::get_scheme(scheme_name)
                  .make_opener(profile.keys(), hard.image.omega, gran);
          const std::uint32_t b = hard.layout.policy().words_per_block;
          std::uint32_t at = 0;
          for (const xform::Block& block : hard.layout.blocks()) {
            const std::vector<std::uint32_t> offsets =
                block.kind == xform::BlockKind::kMux
                    ? std::vector<std::uint32_t>{1, 2}
                    : std::vector<std::uint32_t>{0};
            for (const std::uint32_t offset : offsets) {
              const scheme::EntryPath path = scheme::entry_path(offset, b);
              const std::uint32_t prev =
                  offset == 2 ? block.pred2_word : block.pred1_word;
              std::vector<std::uint32_t> clean(b, 0);
              for (const std::uint32_t j : path.sched)
                clean[j] = hard.image.text[at + j];
              const scheme::DeviceBlock base =
                  opener->open(block.base_word, prev, path, clean);
              for (int trial = 0; trial < 3; ++trial) {
                // 1-3 path words, each bit-flipped or patched.
                std::vector<std::uint32_t> raw = clean;
                const auto words = 1 + rng.next_below(3);
                for (std::uint64_t k = 0; k < words; ++k) {
                  const std::uint32_t j =
                      path.sched[rng.next_below(path.sched.size())];
                  if (rng.next_below(2) == 0)
                    raw[j] ^= 1u << rng.next_below(32);
                  else
                    raw[j] = rng.next_u32();
                }
                const std::string at_entry =
                    scheme_name + "/" + std::string(crypto::to_string(cipher)) +
                    "/" + std::string(crypto::to_string(gran)) + "/" + wl +
                    " block " + std::to_string(block.base_word) + " path " +
                    std::to_string(offset);
                const scheme::DeviceBlock plain =
                    opener->open(block.base_word, prev, path, raw);
                const scheme::OpenedReference clean_ref{clean, base.plain};
                ASSERT_EQ(opened_digest(opener->open(block.base_word, prev,
                                                     path, raw, &clean_ref)),
                          opened_digest(plain))
                    << at_entry;
                const scheme::OpenedReference tampered_ref{raw, plain.plain};
                ASSERT_EQ(opened_digest(opener->open(block.base_word, prev,
                                                     path, clean,
                                                     &tampered_ref)),
                          opened_digest(base))
                    << at_entry;
                opened += 2;
              }
            }
            at += b;
          }
        }
  EXPECT_GT(opened, 1000u);
}

/// The fields of an opened block that time it on the cycle backend.
std::string timing_fields(const scheme::DeviceBlock& dev) {
  std::string out;
  const auto add = [&out](const char* name, std::uint64_t value) {
    out += name;
    out += std::to_string(value);
  };
  for (const scheme::OpSpan& op : dev.decrypt_ops) {
    add(" decrypt ", op.first);
    add("+", op.count);
  }
  for (const scheme::OpSpan& op : dev.verify_ops) {
    add(" verify ", op.first);
    add("+", op.count);
  }
  for (const std::uint32_t w : dev.verify_extra_words) add(" extra ", w);
  add(" serial ", dev.serial_decrypt);
  add(" verifies ", dev.performs_verify);
  add(" header ", dev.header_words);
  return out;
}

TEST(SchemeOpen, OpListsDependOnlyOnTheEntryPath) {
  // The cycle backend times an entry from its opened block's op lists and
  // reuses that timing per entry path (sim/fetch.hpp). So every block,
  // entered at the same offset, must open to the same op lists whatever
  // its words: clean, bit-flipped or patched, on all three entry paths.
  Rng rng(31);
  std::size_t opened = 0;
  for (const std::string& scheme_name : scheme::scheme_names())
    for (const auto gran : {crypto::Granularity::kPerPair,
                            crypto::Granularity::kPerWord})
      for (const char* wl : {"crc32", "fib"}) {
        pipeline::DeviceProfile profile = pipeline::DeviceProfile::example(
            crypto::CipherKind::kRectangle80);
        profile.scheme = scheme_name;
        profile.granularity = gran;
        const auto& spec = workloads::workload(wl);
        auto p = pipeline::Pipeline::from_workload(
            spec, 1, std::max(4u, spec.default_size / 16), profile);
        const xform::TransformResult& hard = p.hardened();
        const auto opener =
            scheme::get_scheme(scheme_name)
                .make_opener(profile.keys(), hard.image.omega, gran);
        const std::uint32_t b = hard.layout.policy().words_per_block;
        std::string want[3];
        std::uint32_t at = 0;
        for (const xform::Block& block : hard.layout.blocks()) {
          for (std::uint32_t offset = 0; offset < 3; ++offset) {
            const scheme::EntryPath path = scheme::entry_path(offset, b);
            const std::uint32_t prev =
                offset == 2 ? block.pred2_word : block.pred1_word;
            std::vector<std::uint32_t> raw(b, 0);
            for (const std::uint32_t j : path.sched)
              raw[j] = hard.image.text[at + j];
            const std::string where =
                scheme_name + "/" + std::string(crypto::to_string(gran)) +
                "/" + wl + " block " + std::to_string(block.base_word) +
                " path " + std::to_string(offset);
            for (int trial = 0; trial < 3; ++trial) {
              const std::string got = timing_fields(
                  opener->open(block.base_word, prev, path, raw));
              if (want[offset].empty()) want[offset] = got;
              ASSERT_EQ(got, want[offset]) << where << " trial " << trial;
              ++opened;
              // The next trial flips or patches one more path word.
              const std::uint32_t j =
                  path.sched[rng.next_below(path.sched.size())];
              if (trial == 0)
                raw[j] ^= 1u << rng.next_below(32);
              else
                raw[j] = rng.next_u32();
            }
          }
          at += b;
        }
      }
  EXPECT_GT(opened, 1000u);
}

TEST(SchemeSealing, GranularityTraitIsHonest) {
  for (const auto& name : scheme::scheme_names()) {
    pipeline::DeviceProfile a = pipeline::DeviceProfile::paper_default();
    a.scheme = name;
    a.granularity = crypto::Granularity::kPerPair;
    pipeline::DeviceProfile b = a;
    b.granularity = crypto::Granularity::kPerWord;
    auto pa = pipeline::Pipeline::from_workload("fib", 1, 8, a);
    auto pb = pipeline::Pipeline::from_workload("fib", 1, 8, b);
    const bool same = pa.hardened().image.text == pb.hardened().image.text;
    EXPECT_EQ(same, !scheme::get_scheme(name).traits().uses_granularity)
        << name;
  }
}

// A sponge device and a CTR-layout image (or vice versa) must fail like a
// key mismatch: the keystream constructions are incompatible, so the body
// garbles and the verdict fires on the first block.
TEST(SchemeSealing, SpongeAndCtrLayoutsDoNotInteroperate) {
  pipeline::DeviceProfile cbc = pipeline::DeviceProfile::paper_default();
  pipeline::DeviceProfile spg = cbc;
  spg.scheme = "sponge";
  auto sealed_cbc = pipeline::Pipeline::from_workload("fib", 1, 8, cbc);
  auto sealed_spg = pipeline::Pipeline::from_workload("fib", 1, 8, spg);

  auto on_sponge = pipeline::Pipeline::from_image(sealed_cbc.hardened().image, spg);
  ASSERT_EQ(on_sponge.run().status, sim::RunResult::Status::kReset);
  EXPECT_EQ(on_sponge.run().reset.cause, sim::ResetCause::kStateCorruption);

  auto on_cbc = pipeline::Pipeline::from_image(sealed_spg.hardened().image, cbc);
  ASSERT_EQ(on_cbc.run().status, sim::RunResult::Status::kReset);
  EXPECT_EQ(on_cbc.run().reset.cause, sim::ResetCause::kMacMismatch);
}

// Pinned on purpose: sofia-cbcmac and null share the CTR block format and
// a null device never reads the header, so a sofia-cbcmac image runs
// cleanly on a null device — integrity stripped, confidentiality kept.
TEST(SchemeSealing, NullDeviceRunsCbcmacImagesWithoutIntegrity) {
  pipeline::DeviceProfile cbc = pipeline::DeviceProfile::paper_default();
  auto sealed = pipeline::Pipeline::from_workload("fib", 1, 8, cbc);
  pipeline::DeviceProfile dev = cbc;
  dev.scheme = "null";
  auto runner = pipeline::Pipeline::from_image(sealed.hardened().image, dev);
  const auto& r = runner.run();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.stats.mac_verifications, 0u);
}

// ---- the differential tamper suite -----------------------------------------

struct TamperCase {
  const char* scheme;
  sim::ResetCause cause;  // the scheme's verification verdict
  bool authenticated;
};

const TamperCase kTamperCases[] = {
    {"sofia-cbcmac", sim::ResetCause::kMacMismatch, true},
    {"sponge", sim::ResetCause::kStateCorruption, true},
    {"null", sim::ResetCause::kNone, false},
    // flta layers the forward-edge label gate on the CBC-MAC substrate, so
    // generic ciphertext tampering still verdicts as a MAC mismatch.
    {"flta", sim::ResetCause::kMacMismatch, true},
};

// Without this, GoogleTest prints the case as raw bytes, which embed the
// load address of the scheme string: the discovered CTest names would then
// change with every build.
void PrintTo(const TamperCase& c, std::ostream* os) { *os << c.scheme; }

bool verification_cause(sim::ResetCause c) {
  return c == sim::ResetCause::kMacMismatch ||
         c == sim::ResetCause::kStateCorruption;
}

/// Block word index of the entry block's first word.
std::uint32_t entry_block_word(const assembler::LoadImage& img,
                               std::uint32_t words_per_block) {
  const std::uint32_t w = (img.entry - img.text_base) / 4;
  return (w / words_per_block) * words_per_block;
}

class TamperSuite : public ::testing::TestWithParam<TamperCase> {
 protected:
  struct Combo {
    pipeline::Pipeline pipeline;
    std::string label;
  };

  std::vector<Combo> combos() {
    std::vector<Combo> out;
    for (const auto ck : {crypto::CipherKind::kRectangle80,
                          crypto::CipherKind::kSpeck64_128}) {
      for (const char* be : {"cycle", "functional"}) {
        pipeline::DeviceProfile p = pipeline::DeviceProfile::example(ck);
        p.scheme = GetParam().scheme;
        p.backend = be;
        out.push_back({pipeline::Pipeline::from_workload("fib", 1, 16, p),
                       std::string(GetParam().scheme) + "/" +
                           std::string(crypto::to_string(ck)) + "/" + be});
      }
    }
    return out;
  }
};

// Flipping one ciphertext bit in the instruction body must reset every
// authenticated scheme with exactly its verdict; "null" must never raise a
// verification cause (decode-side rules may still fire on the garbage).
TEST_P(TamperSuite, TamperedTextWordIsCaught) {
  for (auto& c : combos()) {
    const auto& clean = c.pipeline.run();
    ASSERT_TRUE(clean.ok()) << c.label;
    EXPECT_EQ(clean.exit_code, 0) << c.label;

    auto img = c.pipeline.hardened().image;
    img.text[img.text.size() / 2] ^= 0x10u;
    const auto r = c.pipeline.run_image(img);
    if (GetParam().authenticated) {
      ASSERT_EQ(r.status, sim::RunResult::Status::kReset) << c.label;
      EXPECT_EQ(r.reset.cause, GetParam().cause) << c.label;
    } else {
      EXPECT_FALSE(verification_cause(r.reset.cause)) << c.label;
    }
  }
}

// Forging the stored tag (the header words) garbles nothing the decoder
// ever sees, so only verification can catch it: authenticated schemes must
// reset with their verdict, while "null" — whose header carries no secret —
// must run to a clean exit.
TEST_P(TamperSuite, ForgedHeaderIsCaughtOnlyByVerification) {
  for (auto& c : combos()) {
    auto img = c.pipeline.hardened().image;
    const std::uint32_t base = entry_block_word(
        img, c.pipeline.profile().policy.words_per_block);
    img.text[base] ^= 0x4000u;
    const auto r = c.pipeline.run_image(img);
    if (GetParam().authenticated) {
      ASSERT_EQ(r.status, sim::RunResult::Status::kReset) << c.label;
      EXPECT_EQ(r.reset.cause, GetParam().cause) << c.label;
      EXPECT_EQ(r.reset.pc, (base * 4) + img.text_base) << c.label;
    } else {
      EXPECT_TRUE(r.ok()) << c.label << " status="
                          << static_cast<int>(r.status);
      EXPECT_EQ(r.exit_code, 0) << c.label;
    }
  }
}

// Splicing another block's ciphertext over the entry block (a relocation /
// block-skip attack) must garble under the address-bound counters and trip
// verification; "null" decrypts garbage but must not claim verification.
TEST_P(TamperSuite, RelocatedBlockIsCaught) {
  for (auto& c : combos()) {
    auto img = c.pipeline.hardened().image;
    const std::uint32_t b = c.pipeline.profile().policy.words_per_block;
    const std::uint32_t base = entry_block_word(img, b);
    const std::uint32_t donor = (base == 0) ? b : 0;
    ASSERT_GE(img.text.size(), donor + b);
    for (std::uint32_t j = 0; j < b; ++j)
      img.text[base + j] = img.text[donor + j];
    const auto r = c.pipeline.run_image(img);
    if (GetParam().authenticated) {
      ASSERT_EQ(r.status, sim::RunResult::Status::kReset) << c.label;
      EXPECT_EQ(r.reset.cause, GetParam().cause) << c.label;
    } else {
      EXPECT_FALSE(r.ok()) << c.label;
      EXPECT_FALSE(verification_cause(r.reset.cause)) << c.label;
    }
  }
}

// A transient fault on the fetch path (one flipped bus bit) is the same
// event as tampered ciphertext by the time the scheme sees it.
TEST_P(TamperSuite, InjectedFetchFaultIsCaught) {
  for (auto& c : combos()) {
    sim::SimConfig config = c.pipeline.sim_config();
    config.fault.enabled = true;
    config.fault.fetch_index = 100;
    config.fault.bit = 7;
    const auto r = c.pipeline.run_image(c.pipeline.hardened().image, config);
    if (GetParam().authenticated) {
      ASSERT_EQ(r.status, sim::RunResult::Status::kReset) << c.label;
      EXPECT_EQ(r.reset.cause, GetParam().cause) << c.label;
    } else {
      EXPECT_FALSE(verification_cause(r.reset.cause)) << c.label;
    }
  }
}

// The stats must say what the scheme does: an unauthenticated run counts no
// verifications and no MAC-class cipher work; authenticated runs count both.
TEST_P(TamperSuite, StatsReflectTheSchemeContract) {
  for (auto& c : combos()) {
    const auto& r = c.pipeline.run();
    ASSERT_TRUE(r.ok()) << c.label;
    if (GetParam().authenticated) {
      EXPECT_GT(r.stats.mac_verifications, 0u) << c.label;
    } else {
      EXPECT_EQ(r.stats.mac_verifications, 0u) << c.label;
      EXPECT_EQ(r.stats.cbc_ops, 0u) << c.label;
      EXPECT_EQ(r.stats.store_gate_stalls, 0u) << c.label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TamperSuite,
                         ::testing::ValuesIn(kTamperCases),
                         [](const auto& info) {
                           std::string n = info.param.scheme;
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

// ---- forward-edge retargeting ----------------------------------------------

// Two dispatch sites with disjoint target sets. The data table is the
// attack surface: SOFIA seals only the text, so a dispatch slot is one
// unauthenticated store away from aiming the jump elsewhere.
constexpr char kDispatchVictim[] = R"(
main:
  li r1, 0
  la r4, table
  lw r5, 0(r4)
  .targets f1, f2
  jr r5
mid:
  la r4, table2
  lw r5, 0(r4)
  .targets g1, g2
  jr r5
done:
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
f1:
  addi r1, r1, 1
  j mid
f2:
  addi r1, r1, 2
  j mid
g1:
  addi r1, r1, 4
  j done
g2:
  addi r1, r1, 8
  j done
.data
table: .word f1, f2
table2: .word g1, g2
)";

std::uint32_t data_word(const assembler::LoadImage& img, std::uint32_t off) {
  std::uint32_t v = 0;
  for (std::uint32_t j = 0; j < 4; ++j)
    v |= static_cast<std::uint32_t>(img.data[off + j]) << (8 * j);
  return v;
}

void set_data_word(assembler::LoadImage& img, std::uint32_t off,
                   std::uint32_t v) {
  for (std::uint32_t j = 0; j < 4; ++j)
    img.data[off + j] = static_cast<std::uint8_t>(v >> (8 * j));
}

// Redirecting a dispatch slot across target sets is exactly the attack the
// forward-edge scheme exists for: flta must verdict it as a target-set
// violation, while the backward-edge-only scheme can at best watch the
// devirtualized compare chain bend into its trap — no verification cause,
// just silently wrong behavior.
TEST(ForwardEdge, RetargetedDispatchSlotIsOnlyAttributedByFlta) {
  const auto make = [](const char* scheme_name) {
    auto p = pipeline::DeviceProfile::example(crypto::CipherKind::kSpeck64_128);
    p.scheme = scheme_name;
    return pipeline::Pipeline::from_source(kDispatchVictim, p, "dispatch");
  };
  // table[0] sits at data offset 0, table2[0] at offset 8; the redirect
  // aims the first dispatch at the second set's first target.
  {
    auto session = make("flta");
    ASSERT_TRUE(session.run().ok());
    auto img = session.hardened().image;
    set_data_word(img, 0, data_word(img, 8));
    const auto r = session.run_image(img);
    ASSERT_EQ(r.status, sim::RunResult::Status::kReset);
    EXPECT_EQ(r.reset.cause, sim::ResetCause::kTargetSetViolation);
  }
  {
    auto session = make("sofia-cbcmac");
    const auto& clean = session.run();
    ASSERT_TRUE(clean.ok());
    auto img = session.hardened().image;
    set_data_word(img, 0, data_word(img, 8));
    const auto r = session.run_image(img);
    EXPECT_NE(r.status, sim::RunResult::Status::kReset)
        << "the backward-edge scheme has no forward-edge verdict";
    EXPECT_NE(r.output, clean.output) << "the bend must be live, not dead code";
  }
}

// The nearest text-level realization of the same redirect — splicing the
// other target's sealed block over the intended one — is caught by both
// MAC substrates, but sofia-cbcmac classifies it merely as a relocation;
// only the forward-edge scheme names the violated edge at runtime.
TEST(ForwardEdge, CbcmacSeesRetargetingOnlyAsARelocation) {
  auto p = pipeline::DeviceProfile::example(crypto::CipherKind::kSpeck64_128);
  p.scheme = "sofia-cbcmac";
  auto session = pipeline::Pipeline::from_source(kDispatchVictim, p,
                                                 "dispatch");
  ASSERT_TRUE(session.run().ok());
  auto img = session.hardened().image;
  const std::uint32_t b = session.profile().policy.words_per_block;
  // Under the non-gating scheme the table holds placed block addresses.
  const std::uint32_t f1_block = (data_word(img, 0) - img.text_base) / 4 / b;
  const std::uint32_t g1_block = (data_word(img, 8) - img.text_base) / 4 / b;
  ASSERT_NE(f1_block, g1_block);
  for (std::uint32_t j = 0; j < b; ++j)
    img.text[f1_block * b + j] = img.text[g1_block * b + j];
  const auto run = session.run_image(img);
  ASSERT_EQ(run.status, sim::RunResult::Status::kReset);
  EXPECT_EQ(run.reset.cause, sim::ResetCause::kMacMismatch);
  const auto rules = verify::error_rules(session.lint_image(img));
  EXPECT_NE(std::find(rules.begin(), rules.end(),
                      verify::Rule::kRelocatedBlock),
            rules.end())
      << "static attribution should say 'relocated block', nothing about "
         "the forward edge";
}

}  // namespace
