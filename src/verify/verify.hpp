// Static integrity verifier for hardened SOFIA images (the offline
// complement to the device's runtime enforcement). The paper's installation
// flow derives every block's sealing from "a precise Control Flow Graph of
// the whole program"; nothing at runtime re-checks that derivation — a bad
// toolchain, a tampered image or a key/version mismatch only surfaces as a
// reset on the device. This pass re-derives the whole contract statically:
//
//  * every control transfer the sealed instructions encode lands on a valid
//    block entry (offset 0 for execution blocks, 1/2 for the two
//    multiplexor paths) that is sealed for exactly that predecessor exit
//    word — re-sealed per scheme::ProtectionScheme and compared against the
//    image bytes, so a forged header, relocated block or tampered body word
//    is attributed to a specific rule instead of a generic MAC failure;
//  * block-policy conformance: control only in the exit slot, stores at or
//    past store_min_word, decodable instructions, no surviving indirect
//    jumps;
//  * whole-image properties: entries with more than one distinct
//    predecessor (decryption underdetermined), unreachable sealed blocks,
//    statically-resolvable stores into the text section, and metadata
//    mismatches (omega, granularity, geometry) between the image header and
//    the device profile.
//
// The verifier sits above cfg/xform/scheme and below pipeline: it consumes
// a DeviceSpec (keys + scheme + granularity + policy) rather than a
// DeviceProfile so pipeline can wrap it without a layering cycle
// (Pipeline::lint() is the everyday entry point; tools/sofia_lint the CLI).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "assembler/image.hpp"
#include "crypto/ctr.hpp"
#include "crypto/key_set.hpp"
#include "scheme/scheme.hpp"
#include "xform/block_policy.hpp"
#include "xform/transform.hpp"

namespace sofia::json {
class Writer;
struct Value;
}

namespace sofia::verify {

// ---- diagnostics -----------------------------------------------------------

enum class Severity : std::uint8_t { kNote, kWarning, kError };

/// Every check the linter performs, as a stable kebab-case rule id (the
/// README's rule-catalog table and the JSON "rule" member use these names).
enum class Rule : std::uint8_t {
  kImageMetadata,          ///< header fields disagree with the program model
  kGeometry,               ///< text size is not a whole number of blocks
  kOmegaMismatch,          ///< image omega != key material's omega
  kGranularityMismatch,    ///< image CTR granularity != profile granularity
  kProfileMismatch,        ///< no block opens under these keys/cipher/scheme
  kTamperedText,           ///< sealed body words differ from the re-sealing
  kForgedHeader,           ///< only the MAC/header words differ
  kRelocatedBlock,         ///< the bytes are another block's valid sealing
  kEdgeSealMismatch,       ///< an edge arrives with the wrong predecessor
  kAmbiguousPredecessor,   ///< one entry, several distinct predecessors
  kInvalidEntry,           ///< transfer targets a non-entry word offset
  kControlPlacement,       ///< control outside the block's exit slot
  kStorePlacement,         ///< store below BlockPolicy::store_min_word
  kUndecodableInstruction, ///< sealed body word is not a valid instruction
  kStrayIndirectJump,      ///< a non-ret jalr survived devirtualization
  kUnreachableBlock,       ///< sealed block no walk from the entry reaches
  kStoreToText,            ///< store whose bounded address may reach text
  kStoreToTextProven,      ///< store proven to write inside the text section
  kUnresolvedIndirect,     ///< indirect jump with no finite target set
  kIndirectTargetUnproven, ///< gated target set not independently provable
};

std::string_view to_string(Rule rule);
std::string_view to_string(Severity severity);

/// One catalog row: the rule, the severity its findings carry, and a
/// one-line description (--rules and the README table render these).
struct RuleInfo {
  Rule rule;
  Severity severity;
  std::string_view name;
  std::string_view description;
};

/// All rules in enum order.
const std::vector<RuleInfo>& rule_catalog();

/// One diagnostic. `block` is the block id (index into the image's block
/// sequence) or -1 when the finding is not about a specific block; `insn`
/// is the absolute word address (byte address / 4) the finding anchors to,
/// or -1.
struct Finding {
  Rule rule = Rule::kImageMetadata;
  Severity severity = Severity::kError;
  std::int64_t block = -1;
  std::int64_t insn = -1;
  std::string message;
};

/// One finding as a JSON object (rule, severity, block, insn, message): the
/// single shape lint reports, sweep job records and sweep cache payloads
/// share.
void to_json(const Finding& f, json::Writer& w);

/// Inverse of to_json; throws sofia::Error on a missing member, a
/// non-integer block/insn or an unknown rule or severity.
Finding finding_from_json(const json::Value& v);

/// Per-indirect-jump target-set record: the gated (declared) entry set and
/// the dataflow engine's independently proven set when it is finite. The
/// sofia-lint-v2 document emits these under "indirects".
struct IndirectTargets {
  std::int64_t block = -1;
  std::int64_t insn = -1;  ///< absolute word address of the jalr
  std::vector<std::uint32_t> declared;  ///< sealed entry byte addresses
  std::vector<std::uint32_t> proven;    ///< dataflow-enumerated byte addrs
  bool proven_finite = false;  ///< false => `proven` is meaningless
};

/// The lint result: findings sorted by (block, insn, rule, message) plus
/// coverage counters and per-jalr target sets, rendered as text or as the
/// "report" object of a sofia-lint-v2 document.
struct Report {
  std::vector<Finding> findings;
  std::vector<IndirectTargets> indirects;  ///< one per surviving jalr
  std::uint32_t blocks_checked = 0;   ///< blocks whose sealing was compared
  std::uint32_t entries_checked = 0;  ///< distinct (block, entry) pairs seen
  std::uint32_t edges_checked = 0;    ///< control transfers resolved
  std::uint32_t stores_checked = 0;      ///< stores the dataflow examined
  std::uint32_t stores_proven_safe = 0;  ///< proven outside the text section

  std::size_t count(Severity severity) const;
  /// No error-severity findings (warnings/notes do not fail --assert-clean).
  bool clean() const { return count(Severity::kError) == 0; }

  /// Human-readable, one line per finding plus a summary line.
  std::string render_text() const;

  /// Emit the report as a complete JSON object (counters + findings +
  /// indirect target sets) through the deterministic writer; the
  /// sofia-lint-v2 document embeds it under "report".
  void to_json(json::Writer& w) const;
};

/// The distinct error-severity rules a report fired, in enum order — the
/// campaign engine's triage uses this to attribute what the static layer
/// would have caught about a runtime escape.
std::vector<Rule> error_rules(const Report& report);

/// Look up a catalog row by its kebab-case rule id; nullptr when no rule
/// has that name. The catalog is the single source for rule ids — CLI
/// validation, JSON, SARIF and the README table all render from it.
const RuleInfo* find_rule(std::string_view name);

/// Emit the report as a SARIF 2.1.0 document (the interchange format CI
/// annotation pipelines consume). `artifact` names the linted unit (source
/// path or workload name). Output is deterministic: rules appear in
/// catalog order, results in the report's sorted finding order.
void to_sarif(const Report& report, std::string_view artifact,
              json::Writer& w);

// ---- inputs ----------------------------------------------------------------

/// The device-side facts the verifier needs to re-derive seals: exactly the
/// axes DeviceProfile stamps onto both toolchain and device, minus the
/// execution backend (a static check never runs anything).
struct DeviceSpec {
  crypto::KeySet keys;
  std::string scheme = std::string(scheme::kDefaultScheme);
  crypto::Granularity granularity = crypto::Granularity::kPerPair;
  xform::BlockPolicy policy = xform::BlockPolicy::paper_default();
};

/// The linter's view of one laid-out block: geometry, the predecessor exit
/// words the block was (supposedly) sealed for, and the plaintext
/// instruction words. Tests build these by hand to drive single rules.
struct ModelBlock {
  bool is_mux = false;
  std::uint32_t base_word = 0;   ///< absolute word address of block word 0
  std::uint32_t pred1_word = 0;  ///< declared prevPC for entry word 0
  std::uint32_t pred2_word = 0;  ///< declared prevPC for mux entry word 1
  std::vector<std::uint32_t> inst_words;  ///< encoded plaintext instructions
  /// Byte addresses a terminating `ret` transfers to (lr values of every
  /// call site, from CFG function analysis). Empty for non-ret exits.
  std::vector<std::uint32_t> ret_targets;
  /// Byte addresses a gated exit jalr may transfer to — the declared
  /// target set's canonical indirect entries (gating schemes only).
  std::vector<std::uint32_t> jalr_targets;
  /// Forward-edge target-set labels the block was sealed with (zero
  /// everywhere under non-gating schemes; see scheme/label.hpp).
  std::uint8_t entry1_label = 0;
  std::uint8_t entry2_label = 0;
  std::uint8_t exit_label = 0;
  bool synthesized = false;  ///< forwarding/thunk/landing block
};

/// The trusted reference the image is checked against.
struct ProgramModel {
  xform::BlockPolicy policy;
  std::uint32_t text_base = 0;  ///< byte address of block 0 word 0
  std::uint32_t entry = 0;      ///< byte address the reset transfers to
  std::uint32_t entry_prev_word = assembler::kResetPrevWord;
  std::vector<ModelBlock> blocks;
  /// Initial data-section contents, so the dataflow engine can resolve
  /// loads from provably-clean data (a dispatch table is data the program
  /// never overwrites). Empty when the program has no data section.
  std::uint32_t data_base = 0;
  std::uint32_t stack_top = 0;
  std::vector<std::uint8_t> data;

  std::uint32_t total_words() const {
    return static_cast<std::uint32_t>(blocks.size()) *
           policy.words_per_block;
  }
};

/// Build the reference model from a completed transform: block geometry and
/// predecessor words from the layout, ret targets from the normalized
/// program's CFG, declared indirect target sets from the `.targets`
/// annotations, and the initial data section from the image (the dataflow
/// engine's load-resolution substrate).
ProgramModel model_of(const xform::TransformResult& t);

// ---- entry points ----------------------------------------------------------

/// Full program-mode lint: check `image` against the reference `model`
/// under `spec`. Never throws for image defects (they become findings);
/// throws sofia::Error only for unusable inputs (unknown scheme name).
/// Every rule is checked, warnings included.
Report lint(const ProgramModel& model, const assembler::LoadImage& image,
            const DeviceSpec& spec);

/// Image-only mode (no program/source available): the metadata, geometry
/// and key-material subset of the checks. Used by pipeline sessions built
/// with from_image/from_image_file.
Report lint(const assembler::LoadImage& image, const DeviceSpec& spec);

}  // namespace sofia::verify
