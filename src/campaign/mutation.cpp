#include "campaign/mutation.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/json.hpp"

namespace sofia::campaign {

const std::vector<MutatorInfo>& mutator_catalog() {
  static const std::vector<MutatorInfo> catalog = {
      {MutationKind::kBitFlip, "bit-flip",
       "flip one bit of one ciphertext word"},
      {MutationKind::kWordPatch, "word-patch",
       "overwrite one ciphertext word with a chosen value"},
      {MutationKind::kWordRelocate, "word-relocate",
       "copy one ciphertext word over another (counter misuse)"},
      {MutationKind::kBlockSplice, "block-splice",
       "copy one whole encrypted block over another (code reuse)"},
      {MutationKind::kHeaderForge, "header-forge",
       "XOR a stored MAC/header word with a nonzero mask"},
      {MutationKind::kCrossVersionSplice, "cross-version-splice",
       "graft the same block from a build under another version nonce"},
      {MutationKind::kFetchFault, "fetch-fault",
       "transient fault: flip one bit of the N-th fetched word"},
      {MutationKind::kRetargetIndirect, "retarget-indirect",
       "redirect a data-section dispatch slot outside its proved target set"},
  };
  return catalog;
}

std::string_view to_string(MutationKind kind) {
  return mutator_catalog().at(static_cast<std::size_t>(kind)).name;
}

MutationKind parse_mutation_kind(std::string_view name) {
  for (const auto& info : mutator_catalog())
    if (info.name == name) return info.kind;
  std::string known;
  for (const auto& info : mutator_catalog()) {
    if (!known.empty()) known += ", ";
    known += info.name;
  }
  throw Error("unknown mutator '" + std::string(name) + "' (known: " + known +
              ")");
}

std::string Mutation::describe() const {
  std::string out(to_string(kind));
  // Named operands, not `"literal" + std::to_string(...)`: GCC 12 reports a
  // spurious -Wrestrict inside <string> for that temporary form.
  const std::string sa = std::to_string(a);
  const std::string sb = std::to_string(b);
  switch (kind) {
    case MutationKind::kBitFlip:
      out += " w" + sa + " b" + sb;
      break;
    case MutationKind::kWordPatch:
      out += " w" + sa;
      break;
    case MutationKind::kWordRelocate:
      out += " " + sa + "->" + sb;
      break;
    case MutationKind::kBlockSplice:
      out += " " + sa + "->" + sb;
      break;
    case MutationKind::kHeaderForge:
      out += " blk" + sa + " h" + sb;
      break;
    case MutationKind::kCrossVersionSplice:
      out += " blk" + sa;
      break;
    case MutationKind::kFetchFault:
      out += " fetch" + sa + " b" + sb;
      break;
    case MutationKind::kRetargetIndirect:
      out += " d" + sa + " ->" + sb;
      break;
  }
  return out;
}

Mutation generate(Rng& rng, const ImageGeometry& g) {
  Mutation m;
  // Weighted kind mix (out of 100): flips dominate like AFL's deterministic
  // stage; the structured kinds (splice, forge, cross-version) each get a
  // steady share so every campaign exercises every rule.
  const std::uint64_t roll = rng.next_below(100);
  if (roll < 34)
    m.kind = MutationKind::kBitFlip;
  else if (roll < 40)
    // Retargets need live dispatch slots (a gating scheme with surviving
    // indirect jumps); without them the share degrades to a bit flip.
    m.kind = g.dispatch_slots.empty() ? MutationKind::kBitFlip
                                      : MutationKind::kRetargetIndirect;
  else if (roll < 55)
    m.kind = MutationKind::kWordPatch;
  else if (roll < 65)
    m.kind = MutationKind::kWordRelocate;
  else if (roll < 75)
    m.kind = MutationKind::kBlockSplice;
  else if (roll < 85)
    m.kind = MutationKind::kHeaderForge;
  else if (roll < 95)
    m.kind = MutationKind::kCrossVersionSplice;
  else
    m.kind = MutationKind::kFetchFault;

  switch (m.kind) {
    case MutationKind::kBitFlip:
      m.a = rng.next_below(g.text_words);
      m.b = rng.next_below(32);
      break;
    case MutationKind::kWordPatch:
      m.a = rng.next_below(g.text_words);
      m.b = rng.next_u32();
      break;
    case MutationKind::kWordRelocate:
      m.a = rng.next_below(g.text_words);
      m.b = rng.next_below(g.text_words);
      break;
    case MutationKind::kBlockSplice:
      m.a = rng.next_below(g.blocks());
      m.b = rng.next_below(g.blocks());
      break;
    case MutationKind::kHeaderForge:
      m.a = rng.next_below(g.blocks());
      m.b = rng.next_below(2);  // both block types carry >= 2 header words
      m.c = rng.next_below(0xFFFFFFFFull) + 1;  // nonzero mask
      break;
    case MutationKind::kCrossVersionSplice:
      m.a = rng.next_below(g.blocks());
      break;
    case MutationKind::kFetchFault:
      // Early fetches are the interesting ones: the clean run's fetch count
      // is O(text), so bound the schedule by a small multiple of it.
      m.a = rng.next_below(4ull * g.text_words);
      m.b = rng.next_below(32);
      break;
    case MutationKind::kRetargetIndirect: {
      m.a = g.dispatch_slots[rng.next_below(g.dispatch_slots.size())];
      // Draw a sealed text word that is NOT a declared indirect entry: an
      // in-set rewire is admitted by the target-set policy, so only
      // out-of-set redirects measure the defense. The declared set is
      // always a strict subset of the text, so the skip loop terminates.
      std::uint32_t w = static_cast<std::uint32_t>(rng.next_below(g.text_words));
      while (std::binary_search(g.indirect_targets.begin(),
                                g.indirect_targets.end(),
                                g.text_base + 4 * w))
        w = (w + 1) % g.text_words;
      m.b = g.text_base + 4ull * w;
      break;
    }
  }
  return m;
}

MutationRecord generate_record(Rng& rng, const ImageGeometry& g) {
  // Mostly single mutations (attribution stays sharp); one in four records
  // is a 2-3 mutation combination to hunt interaction escapes.
  std::size_t count = 1;
  if (rng.next_below(4) == 0) count = 2 + rng.next_below(2);
  MutationRecord record;
  record.reserve(count);
  bool have_fault = false;
  for (std::size_t i = 0; i < count; ++i) {
    Mutation m = generate(rng, g);
    if (m.kind == MutationKind::kFetchFault) {
      if (have_fault) {
        // SimConfig carries a single fault slot; degrade the duplicate to a
        // bit flip reusing the drawn parameters (still in range).
        m.kind = MutationKind::kBitFlip;
        m.a %= g.text_words;
      } else {
        have_fault = true;
      }
    }
    record.push_back(m);
  }
  return record;
}

namespace {

std::uint32_t checked_word(const assembler::LoadImage& image, std::uint64_t w,
                           const Mutation& m) {
  if (w >= image.text.size())
    throw Error("mutation '" + m.describe() + "': word index " +
                std::to_string(w) + " out of range for " +
                std::to_string(image.text.size()) + " text words");
  return static_cast<std::uint32_t>(w);
}

std::uint32_t checked_block(const assembler::LoadImage& image,
                            std::uint32_t words_per_block, std::uint64_t blk,
                            const Mutation& m) {
  const std::uint64_t blocks = image.text.size() / words_per_block;
  if (blk >= blocks)
    throw Error("mutation '" + m.describe() + "': block index " +
                std::to_string(blk) + " out of range for " +
                std::to_string(blocks) + " blocks");
  return static_cast<std::uint32_t>(blk);
}

}  // namespace

void apply(const Mutation& m, assembler::LoadImage& image,
           sim::SimConfig& config, const ApplyContext& ctx) {
  const std::uint32_t b = ctx.words_per_block;
  switch (m.kind) {
    case MutationKind::kBitFlip:
      image.text[checked_word(image, m.a, m)] ^= (1u << (m.b & 31));
      break;
    case MutationKind::kWordPatch:
      image.text[checked_word(image, m.a, m)] =
          static_cast<std::uint32_t>(m.b);
      break;
    case MutationKind::kWordRelocate: {
      const std::uint32_t from = checked_word(image, m.a, m);
      const std::uint32_t to = checked_word(image, m.b, m);
      image.text[to] = image.text[from];
      break;
    }
    case MutationKind::kBlockSplice: {
      const std::uint32_t from = checked_block(image, b, m.a, m);
      const std::uint32_t to = checked_block(image, b, m.b, m);
      for (std::uint32_t j = 0; j < b; ++j)
        image.text[to * b + j] = image.text[from * b + j];
      break;
    }
    case MutationKind::kHeaderForge: {
      const std::uint32_t blk = checked_block(image, b, m.a, m);
      if (m.b >= 2)
        throw Error("mutation '" + m.describe() +
                    "': header word offset must be 0 or 1");
      image.text[blk * b + static_cast<std::uint32_t>(m.b)] ^=
          static_cast<std::uint32_t>(m.c);
      break;
    }
    case MutationKind::kCrossVersionSplice: {
      if (ctx.donor == nullptr)
        throw Error("mutation '" + m.describe() +
                    "': no donor image configured");
      const std::uint32_t blk = checked_block(image, b, m.a, m);
      if ((blk + 1ull) * b > ctx.donor->text.size())
        throw Error("mutation '" + m.describe() +
                    "': block out of range for the donor image");
      for (std::uint32_t j = 0; j < b; ++j)
        image.text[blk * b + j] = ctx.donor->text[blk * b + j];
      break;
    }
    case MutationKind::kFetchFault:
      config.fault.enabled = true;
      config.fault.fetch_index = m.a;
      config.fault.bit = static_cast<unsigned>(m.b & 31);
      break;
    case MutationKind::kRetargetIndirect: {
      // Compared as m.a > size - 4: m.a + 4 would wrap for offsets near
      // 2^64 and pass.
      if (m.a % 4 != 0 || image.data.size() < 4 ||
          m.a > image.data.size() - 4)
        throw Error("mutation '" + m.describe() + "': data offset " +
                    std::to_string(m.a) + " out of range for " +
                    std::to_string(image.data.size()) + " data bytes");
      for (std::uint32_t j = 0; j < 4; ++j)
        image.data[m.a + j] = static_cast<std::uint8_t>(m.b >> (8 * j));
      break;
    }
  }
}

void apply(const MutationRecord& record, assembler::LoadImage& image,
           sim::SimConfig& config, const ApplyContext& ctx) {
  for (const Mutation& m : record) apply(m, image, config, ctx);
}

void to_json(const Mutation& m, json::Writer& w) {
  w.begin_object();
  w.member("kind", to_string(m.kind));
  w.member("a", m.a);
  w.member("b", m.b);
  w.member("c", m.c);
  w.end_object();
}

Mutation mutation_from_json(const json::Value& v) {
  constexpr std::string_view kContext = "mutation record";
  Mutation m;
  m.kind = parse_mutation_kind(v.at("kind", kContext).as_string("kind"));
  m.a = v.at("a", kContext).as_uint("a");
  m.b = v.at("b", kContext).as_uint("b");
  m.c = v.at("c", kContext).as_uint("c");
  return m;
}

}  // namespace sofia::campaign
