// The linter: rule catalog, diagnostics plumbing, and the two entry points
// (program-mode lint against a ProgramModel, image-only metadata lint).
#include "verify/verify.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "cfg/cfg.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "verify/dataflow.hpp"

namespace sofia::verify {

// ---------------------------------------------------------------------------
// Rule catalog and diagnostics
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> catalog = {
      {Rule::kImageMetadata, Severity::kError, "image-metadata",
       "image header (SOFIA flag, entry, reset prevPC, text base) must match "
       "the program model"},
      {Rule::kGeometry, Severity::kError, "geometry",
       "text must be a whole number of policy-sized blocks, each fully "
       "populated"},
      {Rule::kOmegaMismatch, Severity::kError, "omega-mismatch",
       "the image's program-version nonce must match the key material's"},
      {Rule::kGranularityMismatch, Severity::kError, "granularity-mismatch",
       "the image's CTR granularity must match the device profile's"},
      {Rule::kProfileMismatch, Severity::kError, "profile-mismatch",
       "no block matches its expected sealing: wrong keys, cipher, scheme or "
       "program version"},
      {Rule::kTamperedText, Severity::kError, "tampered-text",
       "a sealed instruction word differs from the re-derived sealing"},
      {Rule::kForgedHeader, Severity::kError, "forged-header",
       "only a block's MAC/header words differ from the re-derived sealing"},
      {Rule::kRelocatedBlock, Severity::kError, "relocated-block",
       "the image bytes are another block's valid sealing (splice/replay)"},
      {Rule::kEdgeSealMismatch, Severity::kError, "edge-seal-mismatch",
       "a control transfer arrives at an entry sealed for a different "
       "predecessor exit word"},
      {Rule::kAmbiguousPredecessor, Severity::kError, "ambiguous-predecessor",
       "one block entry is reached from several distinct predecessors, so "
       "its decryption counter is underdetermined"},
      {Rule::kInvalidEntry, Severity::kError, "invalid-entry",
       "a control transfer targets a word that is not a valid block entry "
       "for the target block's kind"},
      {Rule::kControlPlacement, Severity::kError, "control-placement",
       "a control-transfer instruction occupies a slot other than the "
       "block's exit slot"},
      {Rule::kStorePlacement, Severity::kError, "store-placement",
       "a store occupies a block word below BlockPolicy::store_min_word"},
      {Rule::kUndecodableInstruction, Severity::kError,
       "undecodable-instruction",
       "a sealed body word does not decode to any SR32 instruction"},
      {Rule::kStrayIndirectJump, Severity::kError, "stray-indirect-jump",
       "a non-ret jalr survived devirtualization; its targets cannot be "
       "verified statically"},
      {Rule::kUnreachableBlock, Severity::kWarning, "unreachable-block",
       "no control path from the reset entry reaches this sealed block"},
      {Rule::kStoreToText, Severity::kWarning, "store-to-text",
       "a store's bounded abstract address may fall inside the text "
       "section"},
      {Rule::kStoreToTextProven, Severity::kError, "store-to-text-proven",
       "a store's abstract address is proven to lie entirely inside the "
       "sealed text section"},
      {Rule::kUnresolvedIndirect, Severity::kError, "unresolved-indirect",
       "an indirect jump has no finite target set: nothing declared to "
       "gate it, or the dataflow proved a target outside the gated set"},
      {Rule::kIndirectTargetUnproven, Severity::kWarning,
       "indirect-target-unproven",
       "the dataflow engine could not independently bound a gated indirect "
       "jump; only the runtime gate confines it to the declared set"},
  };
  return catalog;
}

std::string_view to_string(Rule rule) {
  return rule_catalog()[static_cast<std::size_t>(rule)].name;
}

std::string_view to_string(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "error";
}

namespace {

Severity severity_of(Rule rule) {
  return rule_catalog()[static_cast<std::size_t>(rule)].severity;
}

std::string hex32(std::uint32_t value) {
  char buf[11];
  std::snprintf(buf, sizeof buf, "0x%08x", value);
  return buf;
}

void sort_findings(std::vector<Finding>& findings) {
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return std::tie(a.block, a.insn, a.rule, a.message) <
                            std::tie(b.block, b.insn, b.rule, b.message);
                   });
}

}  // namespace

std::size_t Report::count(Severity severity) const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [&](const Finding& f) {
        return f.severity == severity;
      }));
}

std::string Report::render_text() const {
  std::string out;
  for (const Finding& f : findings) {
    out += to_string(f.severity);
    out += '[';
    out += to_string(f.rule);
    out += ']';
    if (f.block >= 0) out += " block " + std::to_string(f.block);
    if (f.insn >= 0)
      out += " @ " + hex32(static_cast<std::uint32_t>(f.insn) * 4);
    out += ": ";
    out += f.message;
    out += '\n';
  }
  out += "lint: " + std::to_string(blocks_checked) + " block(s), " +
         std::to_string(entries_checked) + " entr(ies), " +
         std::to_string(edges_checked) + " edge(s) checked; " +
         std::to_string(count(Severity::kError)) + " error(s), " +
         std::to_string(count(Severity::kWarning)) + " warning(s)\n";
  return out;
}

void Report::to_json(json::Writer& w) const {
  w.begin_object();
  w.member("clean", clean());
  w.member("blocks_checked", blocks_checked);
  w.member("entries_checked", entries_checked);
  w.member("edges_checked", edges_checked);
  w.member("stores_checked", stores_checked);
  w.member("stores_proven_safe", stores_proven_safe);
  w.member("errors", static_cast<std::uint64_t>(count(Severity::kError)));
  w.member("warnings", static_cast<std::uint64_t>(count(Severity::kWarning)));
  w.key("indirects").begin_array();
  for (const IndirectTargets& t : indirects) {
    w.begin_object();
    w.member("block", static_cast<std::int64_t>(t.block));
    w.member("insn", static_cast<std::int64_t>(t.insn));
    w.key("declared").begin_array();
    for (const std::uint32_t a : t.declared) w.value(a);
    w.end_array();
    if (t.proven_finite) {
      w.key("proven").begin_array();
      for (const std::uint32_t a : t.proven) w.value(a);
      w.end_array();
    } else {
      w.key("proven").null();
    }
    w.end_object();
  }
  w.end_array();
  w.key("findings").begin_array();
  for (const Finding& f : findings) verify::to_json(f, w);
  w.end_array();
  w.end_object();
}

void to_json(const Finding& f, json::Writer& w) {
  w.begin_object();
  w.member("rule", to_string(f.rule));
  w.member("severity", to_string(f.severity));
  w.member("block", f.block);
  w.member("insn", f.insn);
  w.member("message", f.message);
  w.end_object();
}

Finding finding_from_json(const json::Value& v) {
  constexpr std::string_view kContext = "lint finding";
  Finding f;
  const std::string& rule = v.at("rule", kContext).as_string("rule");
  const RuleInfo* info = find_rule(rule);
  if (info == nullptr) throw Error("unknown lint rule '" + rule + "'");
  f.rule = info->rule;
  const std::string& severity =
      v.at("severity", kContext).as_string("severity");
  for (const auto s : {Severity::kNote, Severity::kWarning, Severity::kError})
    if (to_string(s) == severity) f.severity = s;
  if (to_string(f.severity) != severity)
    throw Error("unknown lint severity '" + severity + "'");
  f.block = v.at("block", kContext).as_int("block");
  f.insn = v.at("insn", kContext).as_int("insn");
  f.message = v.at("message", kContext).as_string("message");
  return f;
}

std::vector<Rule> error_rules(const Report& report) {
  std::vector<Rule> rules;
  for (const Finding& f : report.findings)
    if (f.severity == Severity::kError) rules.push_back(f.rule);
  std::sort(rules.begin(), rules.end());
  rules.erase(std::unique(rules.begin(), rules.end()), rules.end());
  return rules;
}

const RuleInfo* find_rule(std::string_view name) {
  for (const RuleInfo& info : rule_catalog())
    if (info.name == name) return &info;
  return nullptr;
}

void to_sarif(const Report& report, std::string_view artifact,
              json::Writer& w) {
  const auto level_of = [](Severity s) -> std::string_view {
    switch (s) {
      case Severity::kError: return "error";
      case Severity::kWarning: return "warning";
      case Severity::kNote: return "note";
    }
    return "none";
  };
  w.begin_object();
  w.member("$schema",
           "https://json.schemastore.org/sarif-2.1.0.json");
  w.member("version", "2.1.0");
  w.key("runs").begin_array();
  w.begin_object();
  w.key("tool").begin_object();
  w.key("driver").begin_object();
  w.member("name", "sofia-lint");
  w.member("informationUri",
           "https://github.com/sofia-cfi/sofia#static-verifier");
  w.key("rules").begin_array();
  for (const RuleInfo& info : rule_catalog()) {
    w.begin_object();
    w.member("id", info.name);
    w.key("shortDescription").begin_object();
    w.member("text", info.description);
    w.end_object();
    w.key("defaultConfiguration").begin_object();
    w.member("level", level_of(info.severity));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();  // driver
  w.end_object();  // tool
  w.key("results").begin_array();
  for (const Finding& f : report.findings) {
    w.begin_object();
    w.member("ruleId", to_string(f.rule));
    w.member("ruleIndex",
             static_cast<std::uint64_t>(static_cast<std::size_t>(f.rule)));
    w.member("level", level_of(f.severity));
    w.key("message").begin_object();
    w.member("text", f.message);
    w.end_object();
    w.key("locations").begin_array();
    w.begin_object();
    w.key("physicalLocation").begin_object();
    w.key("artifactLocation").begin_object();
    w.member("uri", artifact);
    w.end_object();
    if (f.insn >= 0) {
      // SARIF regions are 1-based; map the absolute word address to a
      // stable synthetic "line".
      w.key("region").begin_object();
      w.member("startLine", f.insn + 1);
      w.end_object();
    }
    w.end_object();  // physicalLocation
    if (f.block >= 0) {
      w.key("logicalLocations").begin_array();
      w.begin_object();
      w.member("name", "block " + std::to_string(f.block));
      w.member("kind", "module");
      w.end_object();
      w.end_array();
    }
    w.end_object();  // location
    w.end_array();
    w.end_object();  // result
  }
  w.end_array();
  w.end_object();  // run
  w.end_array();
  w.end_object();
}

// ---------------------------------------------------------------------------
// Program-mode lint
// ---------------------------------------------------------------------------

namespace {

class Linter {
 public:
  Linter(const ProgramModel& model, const assembler::LoadImage& image,
         const DeviceSpec& spec)
      : m_(model),
        img_(image),
        spec_(spec),
        scheme_(scheme::get_scheme(spec.scheme)),  // throws for unknown names
        b_(model.policy.words_per_block),
        visited_(model.blocks.size(), false) {}

  Report run() {
    check_metadata();
    check_static();
    walk();
    check_entries();
    check_seals();
    check_unreachable();
    df_ = dataflow::analyze(m_);
    check_stores();
    check_indirects();
    sort_findings(report_.findings);
    return std::move(report_);
  }

 private:
  void add(Rule rule, std::int64_t block, std::int64_t insn,
           std::string message) {
    report_.findings.push_back(
        Finding{rule, severity_of(rule), block, insn, std::move(message)});
  }

  std::uint32_t expected_insts(const ModelBlock& blk) const {
    return blk.is_mux ? m_.policy.mux_insts() : m_.policy.exec_insts();
  }

  // ---- image header vs. model/spec ----------------------------------------

  void check_metadata() {
    if (!img_.sofia) {
      add(Rule::kImageMetadata, -1, -1,
          "image is not marked as a SOFIA image");
      seal_comparable_ = false;
    }
    if (img_.text_base != m_.text_base) {
      add(Rule::kImageMetadata, -1, -1,
          "image text base " + hex32(img_.text_base) +
              " does not match the model's " + hex32(m_.text_base));
      seal_comparable_ = false;
    }
    if (img_.entry != m_.entry)
      add(Rule::kImageMetadata, -1, -1,
          "image entry " + hex32(img_.entry) +
              " does not match the model's " + hex32(m_.entry));
    if (img_.entry_prev != m_.entry_prev_word)
      add(Rule::kImageMetadata, -1, -1,
          "image reset prevPC word " + hex32(img_.entry_prev) +
              " does not match the model's " + hex32(m_.entry_prev_word));
    if (img_.text.size() != m_.total_words()) {
      add(Rule::kGeometry, -1, -1,
          "image text holds " + std::to_string(img_.text.size()) +
              " word(s); the model lays out " +
              std::to_string(m_.total_words()));
      seal_comparable_ = false;
    }
    if (img_.omega != spec_.keys.omega) {
      add(Rule::kOmegaMismatch, -1, -1,
          "image omega " + std::to_string(img_.omega) +
              " does not match the key material's omega " +
              std::to_string(spec_.keys.omega));
      seal_comparable_ = false;
    }
    if (scheme_.traits().uses_granularity &&
        img_.per_pair != (spec_.granularity == crypto::Granularity::kPerPair)) {
      add(Rule::kGranularityMismatch, -1, -1,
          std::string("image was sealed ") +
              (img_.per_pair ? "per-pair" : "per-word") +
              " but the profile's granularity is " +
              std::string(crypto::to_string(spec_.granularity)));
      seal_comparable_ = false;
    }
  }

  // ---- per-block placement/decode rules (independent of reachability) -----

  void check_static() {
    for (std::size_t i = 0; i < m_.blocks.size(); ++i) {
      const ModelBlock& blk = m_.blocks[i];
      const std::uint32_t insts = expected_insts(blk);
      if (blk.inst_words.size() != insts) {
        add(Rule::kGeometry, static_cast<std::int64_t>(i), blk.base_word,
            "block holds " + std::to_string(blk.inst_words.size()) +
                " instruction word(s); a " +
                std::string(blk.is_mux ? "multiplexor" : "execution") +
                " block must hold " + std::to_string(insts));
        continue;
      }
      const std::uint32_t header = b_ - insts;
      for (std::uint32_t s = 0; s < insts; ++s) {
        const std::uint32_t word_index = header + s;
        const std::int64_t insn = blk.base_word + word_index;
        const auto inst = isa::decode(blk.inst_words[s]);
        if (!inst) {
          add(Rule::kUndecodableInstruction, static_cast<std::int64_t>(i),
              insn,
              "word " + hex32(blk.inst_words[s]) +
                  " does not decode to an SR32 instruction");
          continue;
        }
        const auto placement = m_.policy.placement(inst->op, word_index);
        if (placement == xform::Placement::kControlOffExit)
          add(Rule::kControlPlacement, static_cast<std::int64_t>(i), insn,
              std::string(isa::mnemonic(inst->op)) +
                  " occupies instruction slot " + std::to_string(s) +
                  "; control may only occupy the exit slot");
        if (placement == xform::Placement::kRestrictedStore)
          add(Rule::kStorePlacement, static_cast<std::int64_t>(i), insn,
              "store at block word " + std::to_string(word_index) +
                  "; the policy confines stores to words >= " +
                  std::to_string(m_.policy.store_min_word));
        if (isa::is_indirect_jump(*inst) &&
            !(scheme_.traits().gates_indirect && !blk.jalr_targets.empty()))
          add(Rule::kStrayIndirectJump, static_cast<std::int64_t>(i), insn,
              "indirect jump survived devirtualization; its targets cannot "
              "be verified statically");
      }
    }
  }

  // ---- block-graph walk from the reset entry ------------------------------

  /// Resolve one control transfer to (block, entry word), recording the
  /// arriving predecessor exit word. Invalid targets become findings
  /// anchored at the transferring instruction.
  void resolve(std::int64_t from_block, std::int64_t from_word,
               std::int64_t target_addr, std::uint32_t prev,
               const std::string& what) {
    ++report_.edges_checked;
    const std::int64_t base = m_.text_base;
    const std::int64_t limit =
        base + static_cast<std::int64_t>(m_.total_words()) * 4;
    if (target_addr % 4 != 0 || target_addr < base || target_addr >= limit) {
      add(Rule::kInvalidEntry, from_block, from_word,
          what + " targets " +
              hex32(static_cast<std::uint32_t>(target_addr)) +
              ", outside the sealed text section");
      return;
    }
    const auto rel = static_cast<std::uint32_t>((target_addr - base) / 4);
    const std::uint32_t to = rel / b_;
    const std::uint32_t offset = rel % b_;
    const ModelBlock& tb = m_.blocks[to];
    const bool valid_offset =
        tb.is_mux ? (offset == 1 || offset == 2) : offset == 0;
    if (!valid_offset) {
      add(Rule::kInvalidEntry, from_block, from_word,
          what + " targets word offset " + std::to_string(offset) +
              " of block " + std::to_string(to) + ", which is " +
              (tb.is_mux ? "a multiplexor block (valid entries: 1, 2)"
                         : "an execution block (valid entry: 0)"));
      return;
    }
    const std::uint32_t entry_word = offset == 2 ? 1 : 0;
    entries_[{to, entry_word}].insert(prev);
    if (!visited_[to]) {
      visited_[to] = true;
      queue_.push_back(to);
    }
  }

  void walk() {
    if (m_.blocks.empty()) return;
    resolve(-1, -1, m_.entry, m_.entry_prev_word, "the reset entry");
    while (!queue_.empty()) {
      const std::uint32_t i = queue_.back();
      queue_.pop_back();
      const ModelBlock& blk = m_.blocks[i];
      if (blk.inst_words.size() != expected_insts(blk)) continue;
      const auto exit_inst = isa::decode(blk.inst_words.back());
      if (!exit_inst) continue;  // flagged by check_static
      const isa::Instruction& in = *exit_inst;
      const std::int64_t exit_word = blk.base_word + b_ - 1;
      const std::int64_t fall = (blk.base_word + b_) * std::int64_t{4};
      const auto prev = static_cast<std::uint32_t>(exit_word);
      if (isa::is_cond_branch(in.op)) {
        resolve(i, exit_word, (exit_word + in.imm) * 4, prev, "branch");
        resolve(i, exit_word, fall, prev, "branch fall-through");
      } else if (in.op == isa::Opcode::kJal) {
        resolve(i, exit_word, (exit_word + in.imm) * 4, prev,
                in.rd == isa::kRegZero ? "jump" : "call");
      } else if (in.op == isa::Opcode::kJalr) {
        if (isa::is_ret(in)) {
          for (const std::uint32_t target : blk.ret_targets)
            resolve(i, exit_word, target, prev, "return");
        } else {
          // Gated indirect jump: every declared target is entered through
          // its canonical indirect entry, sealed against the sentinel.
          // (Un-gated stray jalr are flagged by check_static; their
          // declared sets are empty and nothing is followed here.)
          for (const std::uint32_t target : blk.jalr_targets)
            resolve(i, exit_word, target, assembler::kIndirectPrevWord,
                    "indirect jump");
        }
      } else if (in.op != isa::Opcode::kHalt) {
        resolve(i, exit_word, fall, prev, "fall-through");
      }
    }
  }

  // ---- entry predecessor consistency --------------------------------------

  void check_entries() {
    report_.entries_checked = static_cast<std::uint32_t>(entries_.size());
    for (const auto& [key, prevs] : entries_) {
      const auto [block, entry_word] = key;
      const ModelBlock& blk = m_.blocks[block];
      const std::uint32_t declared =
          entry_word == 0 ? blk.pred1_word : blk.pred2_word;
      const std::int64_t insn = blk.base_word + entry_word;
      if (prevs.size() > 1)
        add(Rule::kAmbiguousPredecessor, block, insn,
            "entry word " + std::to_string(entry_word) + " is reached from " +
                std::to_string(prevs.size()) +
                " distinct predecessors; its decryption counter is "
                "underdetermined");
      for (const std::uint32_t prev : prevs)
        if (prev != declared)
          add(Rule::kEdgeSealMismatch, block, insn,
              "entry is sealed for predecessor exit word " + hex32(declared) +
                  " but is reached from exit word " + hex32(prev));
    }
  }

  // ---- seal comparison -----------------------------------------------------

  void check_seals() {
    if (!seal_comparable_) return;
    const auto sealer = scheme_.make_sealer(spec_.keys, spec_.granularity);
    std::vector<std::vector<std::uint32_t>> expected(m_.blocks.size());
    for (std::size_t i = 0; i < m_.blocks.size(); ++i) {
      const ModelBlock& blk = m_.blocks[i];
      if (blk.inst_words.size() != expected_insts(blk)) continue;
      expected[i] = sealer->seal(
          scheme::BlockInfo{blk.is_mux, blk.base_word, blk.pred1_word,
                            blk.pred2_word, blk.entry1_label,
                            blk.entry2_label, blk.exit_label},
          blk.inst_words);
    }

    std::vector<Finding> seal_findings;
    std::uint32_t checked = 0;
    std::uint32_t mismatched = 0;
    bool any_relocated = false;
    for (std::size_t i = 0; i < m_.blocks.size(); ++i) {
      if (expected[i].empty()) continue;
      ++checked;
      const std::uint32_t* actual = img_.text.data() + i * b_;
      if (std::equal(expected[i].begin(), expected[i].end(), actual)) continue;
      ++mismatched;
      const ModelBlock& blk = m_.blocks[i];

      // A different block's valid sealing at this slot is a splice/replay.
      std::int64_t donor = -1;
      for (std::size_t j = 0; j < expected.size(); ++j) {
        if (j == i || expected[j].size() != b_) continue;
        if (std::equal(expected[j].begin(), expected[j].end(), actual)) {
          donor = static_cast<std::int64_t>(j);
          break;
        }
      }
      if (donor >= 0) {
        any_relocated = true;
        seal_findings.push_back(Finding{
            Rule::kRelocatedBlock, Severity::kError,
            static_cast<std::int64_t>(i), blk.base_word,
            "image bytes are the valid sealing of block " +
                std::to_string(donor) + " (splice or replay)"});
        continue;
      }

      const std::uint32_t header =
          b_ - static_cast<std::uint32_t>(blk.inst_words.size());
      std::uint32_t first_diff = 0;
      while (actual[first_diff] == expected[i][first_diff]) ++first_diff;
      const bool body_clean =
          std::equal(expected[i].begin() + header, expected[i].end(),
                     actual + header);
      if (body_clean)
        seal_findings.push_back(Finding{
            Rule::kForgedHeader, Severity::kError,
            static_cast<std::int64_t>(i),
            static_cast<std::int64_t>(blk.base_word) + first_diff,
            "header word " + std::to_string(first_diff) +
                " differs from the re-derived sealing"});
      else
        seal_findings.push_back(Finding{
            Rule::kTamperedText, Severity::kError,
            static_cast<std::int64_t>(i),
            static_cast<std::int64_t>(blk.base_word) + first_diff,
            "sealed word " + std::to_string(first_diff) +
                " differs from the re-derived sealing"});
    }

    report_.blocks_checked = checked;
    // Every block failing with no relocation evidence means the key
    // material, cipher, scheme or program version is wrong — one finding,
    // not one per block.
    if (checked >= 2 && mismatched == checked && !any_relocated) {
      add(Rule::kProfileMismatch, -1, -1,
          "all " + std::to_string(checked) +
              " block(s) fail to match their expected sealing under scheme '" +
              spec_.scheme + "'; wrong keys, cipher, scheme or program "
              "version");
      return;
    }
    for (auto& f : seal_findings) report_.findings.push_back(std::move(f));
  }

  // ---- whole-image warnings ------------------------------------------------

  void check_unreachable() {
    for (std::size_t i = 0; i < m_.blocks.size(); ++i)
      if (!visited_[i])
        add(Rule::kUnreachableBlock, static_cast<std::int64_t>(i),
            m_.blocks[i].base_word,
            std::string(m_.blocks[i].synthesized ? "synthesized block"
                                                 : "block") +
                " is sealed but no control path from the reset entry "
                "reaches it");
  }

  // ---- dataflow consumers --------------------------------------------------

  /// Classify every store by its abstract effective address: proven inside
  /// text is an error, a bounded range that may reach text is a warning,
  /// proven disjoint is silently safe. Unbounded (top) addresses carry no
  /// static information and are left to the runtime's seal integrity.
  void check_stores() {
    const std::uint32_t base = m_.text_base;
    const std::uint32_t limit =
        base + static_cast<std::uint32_t>(std::uint64_t{m_.total_words()} * 4);
    for (const dataflow::StoreFact& st : df_.stores) {
      ++report_.stores_checked;
      if (st.addr.proven_outside(base, limit)) {
        ++report_.stores_proven_safe;
        continue;
      }
      if (st.addr.proven_in(base, limit)) {
        add(Rule::kStoreToTextProven, st.block, st.word_addr,
            "store is proven to write inside the sealed text section "
            "(address range " + hex32(st.addr.min()) + ".." +
                hex32(st.addr.max()) + ")");
      } else if (st.addr.bounded()) {
        add(Rule::kStoreToText, st.block, st.word_addr,
            "store address range " + hex32(st.addr.min()) + ".." +
                hex32(st.addr.max()) +
                " may reach the sealed text section");
      }
    }
  }

  /// Cross-check every surviving indirect jump's dataflow-proven target
  /// set against the declared (sealed) gated set, and record both for the
  /// sofia-lint-v2 document.
  void check_indirects() {
    const bool gates = scheme_.traits().gates_indirect;
    for (const dataflow::IndirectFact& f : df_.indirects) {
      const ModelBlock& blk = m_.blocks[f.block];
      IndirectTargets rec;
      rec.block = f.block;
      rec.insn = f.word_addr;
      rec.declared = blk.jalr_targets;
      if (const auto proven = f.target.enumerate(kMaxProvenTargets)) {
        rec.proven_finite = true;
        rec.proven = *proven;
      }
      if (gates && !blk.jalr_targets.empty()) {
        if (rec.proven_finite) {
          for (const std::uint32_t t : rec.proven)
            if (!std::binary_search(rec.declared.begin(), rec.declared.end(),
                                    t))
              add(Rule::kUnresolvedIndirect, f.block, f.word_addr,
                  "dataflow proves target " + hex32(t) +
                      " is reachable but it is outside the declared gated "
                      "set");
        } else {
          add(Rule::kIndirectTargetUnproven, f.block, f.word_addr,
              "target set could not be independently proven; the runtime "
              "gate confines it to the " +
                  std::to_string(rec.declared.size()) +
                  " declared target(s)");
        }
      } else if (gates) {
        add(Rule::kUnresolvedIndirect, f.block, f.word_addr,
            "indirect jump has no declared target set to gate");
      } else if (!rec.proven_finite) {
        // Non-gating scheme: check_static already errors on the stray
        // jalr; an unbounded target set is a second, distinct fact.
        add(Rule::kUnresolvedIndirect, f.block, f.word_addr,
            "indirect jump target set is unbounded; no finite "
            "over-approximation exists");
      }
      report_.indirects.push_back(std::move(rec));
    }
  }

  /// Largest proven target set recorded per jalr; a bound this size is no
  /// longer a meaningful forward-edge statement.
  static constexpr std::size_t kMaxProvenTargets = 64;

  const ProgramModel& m_;
  const assembler::LoadImage& img_;
  const DeviceSpec& spec_;
  const scheme::ProtectionScheme& scheme_;
  const std::uint32_t b_;

  dataflow::DataflowResult df_;
  Report report_;
  bool seal_comparable_ = true;
  std::vector<bool> visited_;
  std::vector<std::uint32_t> queue_;
  /// (block id, entry word index) -> distinct arriving predecessor words.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::set<std::uint32_t>>
      entries_;
};

}  // namespace

Report lint(const ProgramModel& model, const assembler::LoadImage& image,
            const DeviceSpec& spec) {
  return Linter(model, image, spec).run();
}

// ---------------------------------------------------------------------------
// Image-only lint
// ---------------------------------------------------------------------------

Report lint(const assembler::LoadImage& image, const DeviceSpec& spec) {
  const scheme::ProtectionScheme& sch = scheme::get_scheme(spec.scheme);
  Report r;
  const auto add = [&](Rule rule, std::string message) {
    r.findings.push_back(
        Finding{rule, severity_of(rule), -1, -1, std::move(message)});
  };

  if (!image.sofia) add(Rule::kImageMetadata, "image is not marked as a SOFIA image");
  const std::uint32_t b = spec.policy.words_per_block;
  if (image.text.empty() || image.text.size() % b != 0)
    add(Rule::kGeometry,
        "image text holds " + std::to_string(image.text.size()) +
            " word(s), not a positive multiple of the " + std::to_string(b) +
            "-word block size");
  if (image.entry_prev != assembler::kResetPrevWord)
    add(Rule::kImageMetadata,
        "image reset prevPC word " + hex32(image.entry_prev) +
            " is not the architectural reset value " +
            hex32(assembler::kResetPrevWord));
  const std::uint64_t limit =
      image.text_base + std::uint64_t{4} * image.text.size();
  if (image.entry % 4 != 0 || image.entry < image.text_base ||
      image.entry >= limit) {
    add(Rule::kInvalidEntry, "image entry " + hex32(image.entry) +
                                 " falls outside the text section");
  } else if ((image.entry - image.text_base) / 4 % b > 2) {
    add(Rule::kInvalidEntry,
        "image entry " + hex32(image.entry) + " targets word offset " +
            std::to_string((image.entry - image.text_base) / 4 % b) +
            ", which no block kind accepts");
  }
  if (image.omega != spec.keys.omega)
    add(Rule::kOmegaMismatch,
        "image omega " + std::to_string(image.omega) +
            " does not match the key material's omega " +
            std::to_string(spec.keys.omega));
  if (sch.traits().uses_granularity &&
      image.per_pair != (spec.granularity == crypto::Granularity::kPerPair))
    add(Rule::kGranularityMismatch,
        std::string("image was sealed ") +
            (image.per_pair ? "per-pair" : "per-word") +
            " but the profile's granularity is " +
            std::string(crypto::to_string(spec.granularity)));

  sort_findings(r.findings);
  return r;
}

}  // namespace sofia::verify
