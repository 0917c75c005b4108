#include "assembler/image_io.hpp"

#include "support/error.hpp"
#include "support/io.hpp"

namespace sofia::assembler {
namespace {

constexpr std::uint8_t kMagic[4] = {'S', 'O', 'F', 'I'};
constexpr std::uint16_t kFormatVersion = 1;

void put16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put16(out, static_cast<std::uint16_t>(v));
  put16(out, static_cast<std::uint16_t>(v >> 16));
}

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    if (pos_ >= bytes_.size()) throw Error("image: truncated");
    return bytes_[pos_++];
  }
  std::uint16_t u16() {
    const auto lo = u8();
    return static_cast<std::uint16_t>(lo | (u8() << 8));
  }
  std::uint32_t u32() {
    const auto lo = u16();
    return static_cast<std::uint32_t>(lo) | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

std::uint32_t byte_sum(const std::vector<std::uint8_t>& bytes, std::size_t n) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) sum += bytes[i];
  return sum;
}

}  // namespace

std::vector<std::uint8_t> serialize_image(const LoadImage& image) {
  std::vector<std::uint8_t> out;
  out.reserve(40 + image.text.size() * 4 + image.data.size());
  // push_back (not insert) keeps gcc-12's -Wstringop-overflow quiet at -O3.
  for (const std::uint8_t m : kMagic) out.push_back(m);
  put16(out, kFormatVersion);
  std::uint16_t flags = 0;
  if (image.sofia) flags |= 1;
  if (image.per_pair) flags |= 2;
  put16(out, flags);
  put16(out, image.omega);
  put16(out, 0);  // reserved / alignment
  put32(out, image.text_base);
  put32(out, image.data_base);
  put32(out, image.stack_top);
  put32(out, image.entry);
  put32(out, image.entry_prev);
  put32(out, static_cast<std::uint32_t>(image.text.size()));
  put32(out, static_cast<std::uint32_t>(image.data.size()));
  for (const std::uint32_t w : image.text) put32(out, w);
  out.insert(out.end(), image.data.begin(), image.data.end());
  put32(out, byte_sum(out, out.size()));
  return out;
}

LoadImage deserialize_image(const std::vector<std::uint8_t>& bytes) {
  Reader reader(bytes);
  for (const std::uint8_t m : kMagic) {
    if (reader.u8() != m) throw Error("image: bad magic");
  }
  if (reader.u16() != kFormatVersion) throw Error("image: unsupported version");
  const std::uint16_t flags = reader.u16();
  LoadImage image;
  image.sofia = (flags & 1) != 0;
  image.per_pair = (flags & 2) != 0;
  image.omega = reader.u16();
  (void)reader.u16();  // reserved
  image.text_base = reader.u32();
  image.data_base = reader.u32();
  image.stack_top = reader.u32();
  image.entry = reader.u32();
  image.entry_prev = reader.u32();
  const std::uint32_t text_words = reader.u32();
  const std::uint32_t data_bytes = reader.u32();
  // Bound both counts by the bytes present before reserving for them.
  if (text_words > reader.remaining() / 4 ||
      data_bytes > reader.remaining() - std::size_t{text_words} * 4)
    throw Error("image: truncated");
  image.text.reserve(text_words);
  for (std::uint32_t i = 0; i < text_words; ++i) image.text.push_back(reader.u32());
  image.data.reserve(data_bytes);
  for (std::uint32_t i = 0; i < data_bytes; ++i) image.data.push_back(reader.u8());
  const std::size_t payload_end = reader.pos();
  const std::uint32_t stored = reader.u32();
  if (stored != byte_sum(bytes, payload_end))
    throw Error("image: checksum mismatch");
  return image;
}

void save_image(const LoadImage& image, const std::string& path) {
  io::write_file(path, serialize_image(image));
}

LoadImage load_image_file(const std::string& path) {
  return deserialize_image(io::read_file_bytes(path));
}

}  // namespace sofia::assembler
