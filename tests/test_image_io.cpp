#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <utility>

#include "assembler/image_io.hpp"
#include "sim_test_util.hpp"
#include "support/error.hpp"

namespace sofia::assembler {
namespace {

LoadImage sample_image() {
  const auto keys = test::test_keys();
  const auto result = test::transform_source(R"(
main:
  li r1, 5
  call f
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
f:
  add r1, r1, r1
  ret
.data
buf: .word 1, 2, 3
)",
                                             keys);
  return result.image;
}

TEST(ImageIo, RoundTripPreservesEverything) {
  const LoadImage original = sample_image();
  const auto bytes = serialize_image(original);
  const LoadImage restored = deserialize_image(bytes);
  EXPECT_EQ(restored.text, original.text);
  EXPECT_EQ(restored.data, original.data);
  EXPECT_EQ(restored.text_base, original.text_base);
  EXPECT_EQ(restored.data_base, original.data_base);
  EXPECT_EQ(restored.stack_top, original.stack_top);
  EXPECT_EQ(restored.entry, original.entry);
  EXPECT_EQ(restored.entry_prev, original.entry_prev);
  EXPECT_EQ(restored.omega, original.omega);
  EXPECT_EQ(restored.sofia, original.sofia);
  EXPECT_EQ(restored.per_pair, original.per_pair);
}

TEST(ImageIo, RestoredImageRunsIdentically) {
  const LoadImage original = sample_image();
  const LoadImage restored = deserialize_image(serialize_image(original));
  const auto config = test::sofia_config(test::test_keys());
  const auto a = sim::run_image(original, config);
  const auto b = sim::run_image(restored, config);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
}

TEST(ImageIo, VanillaImageRoundTrip) {
  const auto prog = assemble("main:\n li r1, 1\n halt\n");
  const auto img = link_vanilla(prog);
  const auto restored = deserialize_image(serialize_image(img));
  EXPECT_FALSE(restored.sofia);
  EXPECT_EQ(restored.text, img.text);
}

TEST(ImageIo, RejectsBadMagic) {
  auto bytes = serialize_image(sample_image());
  bytes[0] = 'X';
  EXPECT_THROW(deserialize_image(bytes), Error);
}

TEST(ImageIo, RejectsBadVersion) {
  auto bytes = serialize_image(sample_image());
  bytes[4] = 0x7F;
  EXPECT_THROW(deserialize_image(bytes), Error);
}

TEST(ImageIo, RejectsTruncation) {
  auto bytes = serialize_image(sample_image());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(deserialize_image(bytes), Error);
}

// A header whose counts claim more words or bytes than the file holds must
// be rejected before anything is reserved for them.
TEST(ImageIo, RejectsCountsPastTheEnd) {
  auto header = serialize_image(link_vanilla(assemble("main:\n halt\n")));
  header.resize(40);  // magic .. the text and data counts
  for (const auto& [text_words, data_bytes] :
       {std::pair{0xFFFFFFFFu, 0xFFFFFFFFu}, std::pair{0u, 0xFFFFFFFFu}}) {
    auto bytes = header;
    for (int i = 0; i < 4; ++i) {
      bytes[32 + i] = static_cast<std::uint8_t>(text_words >> (8 * i));
      bytes[36 + i] = static_cast<std::uint8_t>(data_bytes >> (8 * i));
    }
    try {
      deserialize_image(bytes);
      FAIL() << "counts past the end must throw";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "image: truncated");
    }
  }
}

TEST(ImageIo, RejectsCorruptPayload) {
  auto bytes = serialize_image(sample_image());
  bytes[40] ^= 0xFF;  // inside the text section
  EXPECT_THROW(deserialize_image(bytes), Error);  // checksum mismatch
}

TEST(ImageIo, FileRoundTrip) {
  const LoadImage original = sample_image();
  const std::string path = "/tmp/sofia_image_io_test.img";
  save_image(original, path);
  const LoadImage restored = load_image_file(path);
  EXPECT_EQ(restored.text, original.text);
  std::remove(path.c_str());
}

TEST(ImageIo, MissingFileThrows) {
  EXPECT_THROW(load_image_file("/nonexistent/no.img"), Error);
}

}  // namespace
}  // namespace sofia::assembler
