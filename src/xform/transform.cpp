#include "xform/transform.hpp"

#include "support/error.hpp"
#include "xform/normalize.hpp"

namespace sofia::xform {

using assembler::LoadImage;
using assembler::Program;

namespace {

/// The scheme-facing view of a laid-out block.
scheme::BlockInfo block_info(const Block& block) {
  scheme::BlockInfo info;
  info.is_mux = block.kind == BlockKind::kMux;
  info.base_word = block.base_word;
  info.pred1_word = block.pred1_word;
  info.pred2_word = block.pred2_word;
  info.entry1_label = block.entry1_label;
  info.entry2_label = block.entry2_label;
  info.exit_label = block.exit_label;
  return info;
}

std::vector<std::uint32_t> encoded_insts(const Block& block) {
  std::vector<std::uint32_t> insts;
  insts.reserve(block.insts.size());
  for (const PlacedInst& pi : block.insts) insts.push_back(isa::encode(pi.inst));
  return insts;
}

}  // namespace

std::vector<std::uint32_t> block_plaintext(const BlockLayout& layout,
                                           const Block& block,
                                           const crypto::KeySet& keys,
                                           std::string_view scheme_name) {
  const auto sealer =
      scheme::get_scheme(scheme_name)
          .make_sealer(keys, crypto::Granularity::kPerWord);
  std::vector<std::uint32_t> words =
      sealer->plaintext(block_info(block), encoded_insts(block));
  if (words.size() != layout.policy().words_per_block)
    throw TransformError("transform: block word count mismatch");
  return words;
}

TransformResult transform(const Program& prog, const crypto::KeySet& keys,
                          const Options& opts) {
  TransformResult result;
  const bool gates_indirect =
      scheme::get_scheme(opts.scheme).traits().gates_indirect;
  result.normalized = merge_returns(devirtualize(prog, gates_indirect));
  result.cfg = cfg::Cfg::build(result.normalized);
  result.layout =
      BlockLayout::pack(result.normalized, result.cfg, opts.policy, opts.mem);

  result.stats.layout = result.layout.stats();
  result.stats.text_bytes_in =
      static_cast<std::uint32_t>(prog.text.size()) * 4;
  result.stats.text_bytes_out = result.layout.total_words() * 4;

  const auto sealer =
      scheme::get_scheme(opts.scheme).make_sealer(keys, opts.granularity);

  LoadImage& img = result.image;
  img.sofia = true;
  img.per_pair = (opts.granularity == crypto::Granularity::kPerPair);
  img.omega = keys.omega;
  img.text_base = opts.mem.text_base;
  img.data_base = opts.mem.data_base;
  img.stack_top = opts.mem.stack_top;
  img.entry_prev = assembler::kResetPrevWord;
  img.entry = result.layout.entry_target_addr(result.layout.reset_entry());

  img.text.reserve(result.layout.total_words());
  for (const Block& block : result.layout.blocks()) {
    std::vector<std::uint32_t> words =
        sealer->seal(block_info(block), encoded_insts(block));
    if (words.size() != result.layout.policy().words_per_block)
      throw TransformError("transform: block word count mismatch");
    img.text.insert(img.text.end(), words.begin(), words.end());
  }

  // Data section: resolve .word label slots against the new layout.
  img.data = result.normalized.data;
  for (const auto& reloc : result.normalized.data_relocs) {
    std::uint32_t addr = 0;
    if (auto it = result.normalized.text_labels.find(reloc.symbol);
        it != result.normalized.text_labels.end())
      // A pointer to an indirect target must name its canonical indirect
      // entry — that is the only address a gated jump may use.
      addr = result.layout.is_indirect_target(it->second)
                 ? result.layout.indirect_entry_addr(it->second)
                 : result.layout.placed_addr(it->second);
    else
      addr = opts.mem.data_base + result.normalized.data_labels.at(reloc.symbol);
    for (int b = 0; b < 4; ++b)
      img.data[reloc.offset + static_cast<std::uint32_t>(b)] =
          static_cast<std::uint8_t>(addr >> (8 * b));
  }
  return result;
}

}  // namespace sofia::xform
