// Direct-mapped instruction cache timing model. Functional data always
// comes from Memory; the cache only decides how many cycles a word takes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/config.hpp"

namespace sofia::sim {

class ICache {
 public:
  explicit ICache(const CacheConfig& config);

  /// Cycles needed to deliver the word at `addr` (1 on hit, the configured
  /// refill penalty on miss); updates cache state.
  std::uint32_t access(std::uint32_t addr);

  /// When every line holding a word `base_word + j` (j in `words`,
  /// ascending) is resident, count one hit per word, as access() on each
  /// would, and return true. Otherwise change nothing and return false.
  /// Checks each line once, not each word.
  bool hit_all(std::uint32_t base_word, std::span<const std::uint32_t> words) {
    if (!resident(base_word, words)) return false;
    hits_ += words.size();
    return true;
  }

  /// Whether every line holding a word `base_word + j` (j in `words`,
  /// ascending) is resident; changes nothing.
  bool resident(std::uint32_t base_word,
                std::span<const std::uint32_t> words) const {
    const std::uint32_t first = ((base_word + words.front()) * 4) >> line_bits_;
    const std::uint32_t last = ((base_word + words.back()) * 4) >> line_bits_;
    if (last < first) return false;  // wraps past the top of memory
    for (std::uint32_t line = first; line <= last; ++line)
      if (tags_[line & (num_lines_ - 1)] != std::uint64_t{line} + 1)
        return false;
    return true;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::uint32_t line_bits_;
  std::uint32_t num_lines_;
  std::uint32_t miss_penalty_;
  std::vector<std::uint64_t> tags_;  ///< tag+1, 0 = invalid
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace sofia::sim
