// Single-pass assembler for SR32 (labels may be used before definition;
// text-label references stay symbolic, so no second pass is needed).
//
// Syntax:
//   label:            ; comment (also '#')
//   .text / .data     section switch
//   .entry name       program entry label (default "main")
//   .targets f, g     static CFG targets for the *next* jalr instruction
//   .word v, ...      32-bit values or labels (labels create data relocs)
//   .half / .byte     16-/8-bit values
//   .space n          n zero bytes
//   .ascii "s" / .asciiz "s"
//   .align n          pad the data section to an n-byte boundary
//
// Numbers read as C's strtoll reads base 0: decimal, 0x/0X hex, octal
// after a leading 0, each with an optional sign; 'c' is a char literal.
// Every literal must fit 32 bits, signed or unsigned ([-2^31, 2^32 - 1]);
// an instruction immediate must fit a signed 32-bit field before its own
// field check (only li takes the unsigned upper half), and a .half or
// .byte value must fit its field signed or unsigned. Nothing wraps.
//
// Each line is split into tokens that view the source text, in buffers
// the lexer reuses from line to line.
//
// The data section as a whole is capped at kMaxDataBytes, checked before
// each directive grows it, so a short hostile source cannot make the
// assembler allocate gigabytes.
//
// Pseudo-instructions: li, la, mv, neg, j, jr, call, ret, beqz, bnez, bgez,
// bltz, bgtz, blez, ble, bgt, bleu, bgtu, seqz, snez.
#include "assembler/program.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "support/bits.hpp"
#include "support/error.hpp"

namespace sofia::assembler {
namespace {

using isa::Instruction;
using isa::Opcode;

/// Largest data section a source may declare (16 MiB). The default memory
/// layout leaves the data section under 1 MiB, and the built-in workloads
/// stay far below it.
constexpr std::uint64_t kMaxDataBytes = std::uint64_t{1} << 24;

/// Numeric literals must fit 32 bits, signed or unsigned.
constexpr std::int64_t kMinLiteral = -(std::int64_t{1} << 31);
constexpr std::int64_t kMaxLiteral = (std::int64_t{1} << 32) - 1;

struct Token {
  enum class Kind : std::uint8_t { kIdent, kNumber, kPunct, kString } kind;
  /// The source text; a string literal's decoded contents; the character
  /// a char literal stands for. Valid until the lexer's next line.
  std::string_view text;
  std::int64_t value = 0;  // for kNumber
};

bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_alpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
bool is_alnum(char c) { return is_digit(c) || is_alpha(c); }
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// A digit's value in bases up to 36, or 36 for any other character.
unsigned digit_value(char c) {
  if (is_digit(c)) return static_cast<unsigned>(c - '0');
  if (c >= 'a' && c <= 'z') return static_cast<unsigned>(c - 'a') + 10;
  if (c >= 'A' && c <= 'Z') return static_cast<unsigned>(c - 'A') + 10;
  return 36;
}

/// The value of `t` read as strtoll reads base 0 (an optional sign, then
/// 0x/0X hex, octal after a leading 0, or decimal), or nullopt unless the
/// whole token is such a number. A magnitude past kMaxLiteral is clamped
/// to kMaxLiteral + 1, which is out of range either way.
std::optional<std::int64_t> parse_number(std::string_view t) {
  std::size_t i = 0;
  const bool negative = !t.empty() && t[0] == '-';
  if (!t.empty() && (t[0] == '-' || t[0] == '+')) ++i;
  unsigned base = 10;
  if (i + 2 < t.size() && t[i] == '0' && (t[i + 1] == 'x' || t[i + 1] == 'X') &&
      digit_value(t[i + 2]) < 16) {
    base = 16;
    i += 2;
  } else if (i < t.size() && t[i] == '0') {
    base = 8;
  }
  if (i == t.size()) return std::nullopt;  // a sign alone
  std::int64_t magnitude = 0;
  for (; i < t.size(); ++i) {
    const unsigned d = digit_value(t[i]);
    if (d >= base) return std::nullopt;
    magnitude = std::min(magnitude * base + d, kMaxLiteral + 1);
  }
  return negative ? -magnitude : magnitude;
}

/// Splits one line at a time into tokens, reusing its buffers across lines.
class LineLexer {
 public:
  void lex(std::string_view line, int line_no) {
    line_no_ = line_no;
    tokens_.clear();
    strings_.clear();
    pos_ = 0;
    std::size_t i = 0;
    while (i < line.size()) {
      const char c = line[i];
      if (c == ';' || c == '#') break;  // comment
      if (is_space(c)) {
        ++i;
        continue;
      }
      if (c == ',' || c == '(' || c == ')' || c == ':') {
        tokens_.push_back({Token::Kind::kPunct, line.substr(i, 1), 0});
        ++i;
        continue;
      }
      if (c == '"') {
        std::string& s = strings_.emplace_back();
        ++i;
        while (i < line.size() && line[i] != '"') {
          char ch = line[i];
          if (ch == '\\' && i + 1 < line.size()) {
            ++i;
            switch (line[i]) {
              case 'n': ch = '\n'; break;
              case 't': ch = '\t'; break;
              case '0': ch = '\0'; break;
              case '\\': ch = '\\'; break;
              case '"': ch = '"'; break;
              default: throw AsmError(line_no_, "bad string escape");
            }
          }
          s.push_back(ch);
          ++i;
        }
        if (i >= line.size()) throw AsmError(line_no_, "unterminated string");
        ++i;
        tokens_.push_back({Token::Kind::kString, s, 0});
        continue;
      }
      if (c == '\'') {
        if (i + 2 >= line.size()) throw AsmError(line_no_, "bad char literal");
        char ch = line[i + 1];
        std::size_t adv = 3;
        if (ch == '\\') {
          switch (line[i + 2]) {
            case 'n': ch = '\n'; break;
            case 't': ch = '\t'; break;
            case '0': ch = '\0'; break;
            case '\\': ch = '\\'; break;
            case '\'': ch = '\''; break;
            default: throw AsmError(line_no_, "bad char escape");
          }
          adv = 4;
        }
        if (i + adv - 1 >= line.size() || line[i + adv - 1] != '\'')
          throw AsmError(line_no_, "unterminated char literal");
        tokens_.push_back({Token::Kind::kNumber, strings_.emplace_back(1, ch), ch});
        i += adv;
        continue;
      }
      if (is_digit(c) || c == '-' || c == '+') {
        std::size_t j = i + 1;
        while (j < line.size() && is_alnum(line[j])) ++j;
        const std::string_view text = line.substr(i, j - i);
        const auto v = parse_number(text);
        if (!v) throw AsmError(line_no_, "bad number '" + std::string(text) + "'");
        if (*v < kMinLiteral || *v > kMaxLiteral)
          throw AsmError(line_no_, "number '" + std::string(text) +
                                       "' does not fit 32 bits");
        tokens_.push_back({Token::Kind::kNumber, text, *v});
        i = j;
        continue;
      }
      if (is_alpha(c) || c == '_' || c == '.') {
        std::size_t j = i + 1;
        while (j < line.size() &&
               (is_alnum(line[j]) || line[j] == '_' || line[j] == '.'))
          ++j;
        tokens_.push_back({Token::Kind::kIdent, line.substr(i, j - i), 0});
        i = j;
        continue;
      }
      throw AsmError(line_no_, std::string("unexpected character '") + c + "'");
    }
  }

  bool done() const { return pos_ >= tokens_.size(); }
  const Token& peek() const {
    if (done()) throw AsmError(line_no_, "unexpected end of line");
    return tokens_[pos_];
  }
  const Token& next() {
    const Token& t = peek();
    ++pos_;
    return t;
  }
  bool accept_punct(char c) {
    if (!done() && tokens_[pos_].kind == Token::Kind::kPunct && tokens_[pos_].text[0] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect_punct(char c) {
    if (!accept_punct(c))
      throw AsmError(line_no_, std::string("expected '") + c + "'");
  }
  int line_no() const { return line_no_; }
  /// The read position, for backing up after a failed lookahead.
  std::size_t mark() const { return pos_; }
  void reset(std::size_t mark) { pos_ = mark; }

 private:
  std::vector<Token> tokens_;
  /// The decoded string and char literals of the line; a deque, so the
  /// token views into earlier ones survive a later one.
  std::deque<std::string> strings_;
  std::size_t pos_ = 0;
  int line_no_ = 0;
};

std::optional<unsigned> parse_reg_name(std::string_view s) {
  if (s == "zero") return 0u;
  if (s == "sp") return isa::kRegSp;
  if (s == "lr") return isa::kRegLr;
  if (s.size() >= 2 && s[0] == 'r') {
    unsigned v = 0;
    for (std::size_t i = 1; i < s.size(); ++i) {
      if (!is_digit(s[i])) return std::nullopt;
      v = v * 10 + static_cast<unsigned>(s[i] - '0');
    }
    if (v < isa::kNumRegs) return v;
  }
  return std::nullopt;
}

class Assembler {
 public:
  Program run(std::string_view source) {
    prog_.text.reserve(
        static_cast<std::size_t>(std::count(source.begin(), source.end(), '\n')));
    int line_no = 0;
    std::size_t start = 0;
    while (start <= source.size()) {
      const std::size_t nl = source.find('\n', start);
      const std::size_t end = (nl == std::string_view::npos) ? source.size() : nl;
      ++line_no;
      process_line(source.substr(start, end - start), line_no);
      if (nl == std::string_view::npos) break;
      start = nl + 1;
    }
    finish();
    return std::move(prog_);
  }

 private:
  enum class Section { kText, kData };

  void process_line(std::string_view line, int line_no) {
    LineLexer& lex = lex_;
    lex.lex(line, line_no);
    // Leading labels: an identifier followed by ':' (else it is the
    // mnemonic, and the lexer backs up to it).
    while (!lex.done() && lex.peek().kind == Token::Kind::kIdent) {
      const std::size_t mark = lex.mark();
      const std::string_view ident = lex.next().text;
      if (!lex.accept_punct(':')) {
        lex.reset(mark);
        break;
      }
      define_label(ident, line_no);
    }
    if (lex.done()) return;
    const Token& head = lex.next();
    if (head.kind != Token::Kind::kIdent)
      throw AsmError(line_no, "expected mnemonic or directive");
    if (head.text[0] == '.') {
      directive(head.text, lex);
    } else {
      if (section_ != Section::kText)
        throw AsmError(line_no, "instruction outside .text");
      instruction(head.text, lex);
    }
    if (!lex.done()) throw AsmError(line_no, "trailing tokens on line");
  }

  void define_label(std::string_view label, int line_no) {
    std::string name(label);
    auto& table = (section_ == Section::kText) ? prog_.text_labels : prog_.data_labels;
    const std::uint32_t value = (section_ == Section::kText)
                                    ? static_cast<std::uint32_t>(prog_.text.size())
                                    : static_cast<std::uint32_t>(prog_.data.size());
    if (!table.emplace(name, value).second ||
        (section_ == Section::kText ? prog_.data_labels.count(name)
                                    : prog_.text_labels.count(name)) != 0)
      throw AsmError(line_no, "duplicate label '" + name + "'");
  }

  // ---- directives --------------------------------------------------------

  void directive(std::string_view name, LineLexer& lex) {
    const int ln = lex.line_no();
    if (name == ".text") {
      section_ = Section::kText;
    } else if (name == ".data") {
      section_ = Section::kData;
    } else if (name == ".global" || name == ".globl") {
      lex.next();  // symbol name; accepted for compatibility, unused
    } else if (name == ".entry") {
      prog_.entry = expect_ident(lex);
    } else if (name == ".targets") {
      if (!pending_targets_.empty())
        throw AsmError(ln, ".targets not consumed by a jalr");
      pending_targets_.emplace_back(expect_ident(lex));
      while (lex.accept_punct(',')) pending_targets_.emplace_back(expect_ident(lex));
      targets_line_ = ln;
    } else if (name == ".word") {
      need_data(ln);
      emit_value_list(lex, 4);
    } else if (name == ".half") {
      need_data(ln);
      emit_value_list(lex, 2);
    } else if (name == ".byte") {
      need_data(ln);
      emit_value_list(lex, 1);
    } else if (name == ".space") {
      need_data(ln);
      const std::int64_t n = expect_number(lex);
      if (n < 0) throw AsmError(ln, ".space size out of range");
      need_room(ln, static_cast<std::uint64_t>(n));
      prog_.data.insert(prog_.data.end(), static_cast<std::size_t>(n), 0);
    } else if (name == ".ascii" || name == ".asciiz") {
      need_data(ln);
      const Token& t = lex.next();
      if (t.kind != Token::Kind::kString) throw AsmError(ln, "expected string");
      need_room(ln, t.text.size() + (name == ".asciiz" ? 1 : 0));
      for (const char c : t.text) prog_.data.push_back(static_cast<std::uint8_t>(c));
      if (name == ".asciiz") prog_.data.push_back(0);
    } else if (name == ".align") {
      need_data(ln);
      const std::int64_t n = expect_number(lex);
      if (n <= 0 || (n & (n - 1)) != 0) throw AsmError(ln, ".align must be a power of two");
      // n <= 2^62, so the padded size cannot wrap 64 bits.
      const auto boundary = static_cast<std::uint64_t>(n);
      const std::uint64_t size = prog_.data.size();
      const std::uint64_t padded = (size + boundary - 1) / boundary * boundary;
      need_room(ln, padded - size);
      prog_.data.resize(static_cast<std::size_t>(padded));
    } else {
      throw AsmError(ln, "unknown directive '" + std::string(name) + "'");
    }
  }

  void need_data(int ln) const {
    if (section_ != Section::kData)
      throw AsmError(ln, "data directive outside .data");
  }

  /// Throw before the data section grows by n bytes past kMaxDataBytes.
  void need_room(int ln, std::uint64_t n) const {
    if (n > kMaxDataBytes - prog_.data.size())
      throw AsmError(ln, "data section exceeds " +
                             std::to_string(kMaxDataBytes) + " bytes");
  }

  void emit_value_list(LineLexer& lex, unsigned size) {
    const int ln = lex.line_no();
    do {
      need_room(ln, size);
      const Token& t = lex.peek();
      if (t.kind == Token::Kind::kIdent) {
        if (size != 4) throw AsmError(ln, "label value requires .word");
        prog_.data_relocs.push_back(
            {static_cast<std::uint32_t>(prog_.data.size()),
             std::string(lex.next().text)});
        for (int i = 0; i < 4; ++i) prog_.data.push_back(0);
      } else {
        const std::int64_t v = expect_number(lex);
        // Every literal fits .word; .half and .byte take a value that fits
        // the field signed or unsigned.
        const std::int64_t field = std::int64_t{1} << (8 * size);
        if (size < 4 && (v < -field / 2 || v >= field)) {
          std::string what = "value ";
          what += std::to_string(v);
          what += size == 1 ? " does not fit .byte" : " does not fit .half";
          throw AsmError(ln, what);
        }
        for (unsigned i = 0; i < size; ++i)
          prog_.data.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    } while (lex.accept_punct(','));
  }

  // ---- instructions -------------------------------------------------------

  void instruction(std::string_view mnem, LineLexer& lex) {
    const int ln = lex.line_no();
    if (!pending_targets_.empty() && mnem != "jalr" && mnem != "jr")
      throw AsmError(targets_line_, ".targets must be followed by jalr/jr");

    // R-type
    if (auto op = r_type(mnem)) {
      const unsigned rd = expect_reg(lex);
      lex.expect_punct(',');
      const unsigned ra = expect_reg(lex);
      lex.expect_punct(',');
      const unsigned rb = expect_reg(lex);
      emit(*op, rd, ra, rb, 0, ln);
      return;
    }
    // I-type ALU
    if (auto op = i_type(mnem)) {
      const unsigned rd = expect_reg(lex);
      lex.expect_punct(',');
      const unsigned ra = expect_reg(lex);
      lex.expect_punct(',');
      const std::int64_t imm = expect_number(lex);
      emit(*op, rd, ra, 0, imm, ln);
      return;
    }
    // Loads / stores: op r, imm(reg)
    if (auto op = mem_type(mnem)) {
      const unsigned r = expect_reg(lex);
      lex.expect_punct(',');
      std::int64_t imm = 0;
      if (lex.peek().kind == Token::Kind::kNumber) imm = lex.next().value;
      lex.expect_punct('(');
      const unsigned base = expect_reg(lex);
      lex.expect_punct(')');
      emit(*op, r, base, 0, imm, ln);
      return;
    }
    // Conditional branches (including pseudo condition swaps).
    if (auto br = branch_type(mnem)) {
      unsigned ra = expect_reg(lex);
      lex.expect_punct(',');
      unsigned rb = expect_reg(lex);
      lex.expect_punct(',');
      if (br->swap) std::swap(ra, rb);
      emit_branch(br->op, ra, rb, lex, ln);
      return;
    }
    dispatch_special(mnem, lex, ln);
  }

  void dispatch_special(std::string_view mnem, LineLexer& lex, int ln) {
    if (mnem == "nop") {
      emit(Opcode::kNop, 0, 0, 0, 0, ln);
    } else if (mnem == "halt") {
      emit(Opcode::kHalt, 0, 0, 0, 0, ln);
    } else if (mnem == "lui") {
      const unsigned rd = expect_reg(lex);
      lex.expect_punct(',');
      emit(Opcode::kLui, rd, 0, 0, expect_number(lex), ln);
    } else if (mnem == "jal") {
      const unsigned rd = expect_reg(lex);
      lex.expect_punct(',');
      emit_jal(rd, lex, ln);
    } else if (mnem == "jalr") {
      const unsigned rd = expect_reg(lex);
      lex.expect_punct(',');
      const unsigned ra = expect_reg(lex);
      std::int64_t imm = 0;
      if (lex.accept_punct(',')) imm = expect_number(lex);
      emit_jalr(rd, ra, imm, ln);
    } else if (mnem == "j") {
      emit_jal(isa::kRegZero, lex, ln);
    } else if (mnem == "call") {
      emit_jal(isa::kRegLr, lex, ln);
    } else if (mnem == "ret") {
      emit_jalr(isa::kRegZero, isa::kRegLr, 0, ln);
    } else if (mnem == "jr") {
      const unsigned ra = expect_reg(lex);
      emit_jalr(isa::kRegZero, ra, 0, ln);
    } else if (mnem == "li") {
      const unsigned rd = expect_reg(lex);
      lex.expect_punct(',');
      const std::int64_t v64 = expect_number(lex);
      emit_li(rd, static_cast<std::uint32_t>(v64), ln);
    } else if (mnem == "la") {
      const unsigned rd = expect_reg(lex);
      lex.expect_punct(',');
      emit_la(rd, expect_ident(lex), ln);
    } else if (mnem == "mv") {
      const unsigned rd = expect_reg(lex);
      lex.expect_punct(',');
      emit(Opcode::kAddi, rd, expect_reg(lex), 0, 0, ln);
    } else if (mnem == "neg") {
      const unsigned rd = expect_reg(lex);
      lex.expect_punct(',');
      emit(Opcode::kSub, rd, isa::kRegZero, expect_reg(lex), 0, ln);
    } else if (mnem == "seqz") {
      const unsigned rd = expect_reg(lex);
      lex.expect_punct(',');
      emit(Opcode::kSltiu, rd, expect_reg(lex), 0, 1, ln);
    } else if (mnem == "snez") {
      const unsigned rd = expect_reg(lex);
      lex.expect_punct(',');
      emit(Opcode::kSltu, rd, isa::kRegZero, expect_reg(lex), 0, ln);
    } else if (mnem == "beqz" || mnem == "bnez" || mnem == "bgez" || mnem == "bltz" ||
               mnem == "bgtz" || mnem == "blez") {
      const unsigned ra = expect_reg(lex);
      lex.expect_punct(',');
      Opcode op;
      unsigned a = ra;
      unsigned b = isa::kRegZero;
      if (mnem == "beqz") op = Opcode::kBeq;
      else if (mnem == "bnez") op = Opcode::kBne;
      else if (mnem == "bgez") op = Opcode::kBge;
      else if (mnem == "bltz") op = Opcode::kBlt;
      else if (mnem == "bgtz") { op = Opcode::kBlt; a = isa::kRegZero; b = ra; }
      else { op = Opcode::kBge; a = isa::kRegZero; b = ra; }  // blez
      emit_branch(op, a, b, lex, ln);
    } else {
      throw AsmError(ln, "unknown mnemonic '" + std::string(mnem) + "'");
    }
  }

  static std::optional<Opcode> r_type(std::string_view m) {
    if (m == "add") return Opcode::kAdd;
    if (m == "sub") return Opcode::kSub;
    if (m == "and") return Opcode::kAnd;
    if (m == "or") return Opcode::kOr;
    if (m == "xor") return Opcode::kXor;
    if (m == "sll") return Opcode::kSll;
    if (m == "srl") return Opcode::kSrl;
    if (m == "sra") return Opcode::kSra;
    if (m == "slt") return Opcode::kSlt;
    if (m == "sltu") return Opcode::kSltu;
    if (m == "mul") return Opcode::kMul;
    return std::nullopt;
  }

  static std::optional<Opcode> i_type(std::string_view m) {
    if (m == "addi") return Opcode::kAddi;
    if (m == "andi") return Opcode::kAndi;
    if (m == "ori") return Opcode::kOri;
    if (m == "xori") return Opcode::kXori;
    if (m == "slli") return Opcode::kSlli;
    if (m == "srli") return Opcode::kSrli;
    if (m == "srai") return Opcode::kSrai;
    if (m == "slti") return Opcode::kSlti;
    if (m == "sltiu") return Opcode::kSltiu;
    return std::nullopt;
  }

  static std::optional<Opcode> mem_type(std::string_view m) {
    if (m == "lw") return Opcode::kLw;
    if (m == "lh") return Opcode::kLh;
    if (m == "lhu") return Opcode::kLhu;
    if (m == "lb") return Opcode::kLb;
    if (m == "lbu") return Opcode::kLbu;
    if (m == "sw") return Opcode::kSw;
    if (m == "sh") return Opcode::kSh;
    if (m == "sb") return Opcode::kSb;
    return std::nullopt;
  }

  struct BranchSpec {
    Opcode op;
    bool swap;
  };
  static std::optional<BranchSpec> branch_type(std::string_view m) {
    if (m == "beq") return BranchSpec{Opcode::kBeq, false};
    if (m == "bne") return BranchSpec{Opcode::kBne, false};
    if (m == "blt") return BranchSpec{Opcode::kBlt, false};
    if (m == "bge") return BranchSpec{Opcode::kBge, false};
    if (m == "bltu") return BranchSpec{Opcode::kBltu, false};
    if (m == "bgeu") return BranchSpec{Opcode::kBgeu, false};
    if (m == "ble") return BranchSpec{Opcode::kBge, true};
    if (m == "bgt") return BranchSpec{Opcode::kBlt, true};
    if (m == "bleu") return BranchSpec{Opcode::kBgeu, true};
    if (m == "bgtu") return BranchSpec{Opcode::kBltu, true};
    return std::nullopt;
  }

  // ---- emission helpers ---------------------------------------------------

  void emit(Opcode op, unsigned rd, unsigned ra, unsigned rb, std::int64_t imm, int ln) {
    SourceInst si;
    si.inst.op = op;
    si.inst.rd = static_cast<std::uint8_t>(rd);
    si.inst.ra = static_cast<std::uint8_t>(ra);
    si.inst.rb = static_cast<std::uint8_t>(rb);
    si.inst.imm = imm32(imm, ln);
    si.line = ln;
    validate_range(si, ln);
    prog_.text.push_back(std::move(si));
  }

  /// An instruction immediate as its signed 32-bit field: a literal past
  /// 2^31 - 1 is a 32-bit pattern only for li and .word.
  static std::int32_t imm32(std::int64_t v, int ln) {
    if (v < std::numeric_limits<std::int32_t>::min() ||
        v > std::numeric_limits<std::int32_t>::max()) {
      std::string what = "immediate ";
      what += std::to_string(v);
      what += " out of range";
      throw AsmError(ln, what);
    }
    return static_cast<std::int32_t>(v);
  }

  void validate_range(const SourceInst& si, int ln) const {
    try {
      if (si.reloc == RelocKind::kNone) (void)isa::encode(si.inst);
    } catch (const Error& e) {
      throw AsmError(ln, e.what());
    }
  }

  void emit_branch(Opcode op, unsigned ra, unsigned rb, LineLexer& lex, int ln) {
    SourceInst si;
    si.inst.op = op;
    si.inst.ra = static_cast<std::uint8_t>(ra);
    si.inst.rb = static_cast<std::uint8_t>(rb);
    si.line = ln;
    if (lex.peek().kind == Token::Kind::kIdent) {
      si.reloc = RelocKind::kBranch;
      si.target = lex.next().text;
    } else {
      si.inst.imm = imm32(expect_number(lex), ln);
    }
    prog_.text.push_back(std::move(si));
  }

  void emit_jal(unsigned rd, LineLexer& lex, int ln) {
    SourceInst si;
    si.inst.op = Opcode::kJal;
    si.inst.rd = static_cast<std::uint8_t>(rd);
    si.line = ln;
    if (lex.peek().kind == Token::Kind::kIdent) {
      si.reloc = RelocKind::kCall;
      si.target = lex.next().text;
    } else {
      si.inst.imm = imm32(expect_number(lex), ln);
    }
    prog_.text.push_back(std::move(si));
  }

  void emit_jalr(unsigned rd, unsigned ra, std::int64_t imm, int ln) {
    SourceInst si;
    si.inst.op = Opcode::kJalr;
    si.inst.rd = static_cast<std::uint8_t>(rd);
    si.inst.ra = static_cast<std::uint8_t>(ra);
    si.inst.imm = imm32(imm, ln);
    si.line = ln;
    si.indirect_targets = std::move(pending_targets_);
    pending_targets_.clear();
    prog_.text.push_back(std::move(si));
  }

  void emit_li(unsigned rd, std::uint32_t value, int ln) {
    const auto sv = static_cast<std::int32_t>(value);
    if (fits_signed(sv, 14)) {
      emit(Opcode::kAddi, rd, isa::kRegZero, 0, sv, ln);
      return;
    }
    const std::uint32_t hi = value >> 14;
    const std::uint32_t lo = value & 0x3FFFu;
    emit(Opcode::kLui, rd, 0, 0, static_cast<std::int64_t>(hi), ln);
    if (lo != 0) emit(Opcode::kOri, rd, rd, 0, static_cast<std::int64_t>(lo), ln);
  }

  void emit_la(unsigned rd, std::string_view label, int ln) {
    // Always the fixed two-instruction form so relocations are uniform
    // across vanilla and SOFIA layouts.
    SourceInst hi;
    hi.inst.op = Opcode::kLui;
    hi.inst.rd = static_cast<std::uint8_t>(rd);
    hi.reloc = RelocKind::kHi18;
    hi.target = label;
    hi.line = ln;
    prog_.text.push_back(std::move(hi));
    SourceInst lo;
    lo.inst.op = Opcode::kOri;
    lo.inst.rd = static_cast<std::uint8_t>(rd);
    lo.inst.ra = static_cast<std::uint8_t>(rd);
    lo.reloc = RelocKind::kLo14;
    lo.target = label;
    lo.line = ln;
    prog_.text.push_back(std::move(lo));
  }

  // ---- operand helpers ----------------------------------------------------

  unsigned expect_reg(LineLexer& lex) {
    const Token& t = lex.next();
    if (t.kind == Token::Kind::kIdent) {
      if (auto r = parse_reg_name(t.text)) return *r;
    }
    throw AsmError(lex.line_no(),
                   "expected register, got '" + std::string(t.text) + "'");
  }

  std::int64_t expect_number(LineLexer& lex) {
    const Token& t = lex.next();
    if (t.kind != Token::Kind::kNumber)
      throw AsmError(lex.line_no(),
                     "expected number, got '" + std::string(t.text) + "'");
    return t.value;
  }

  std::string_view expect_ident(LineLexer& lex) {
    const Token& t = lex.next();
    if (t.kind != Token::Kind::kIdent)
      throw AsmError(lex.line_no(),
                     "expected identifier, got '" + std::string(t.text) + "'");
    return t.text;
  }

  void finish() const {
    if (!pending_targets_.empty())
      throw AsmError(targets_line_, ".targets not consumed by a jalr");
    for (const auto& si : prog_.text) {
      for (const auto& t : si.indirect_targets) {
        if (prog_.text_labels.count(t) == 0)
          throw AsmError(si.line, ".targets label '" + t + "' is not a text label");
      }
      if (si.reloc == RelocKind::kNone) continue;
      const bool in_text = prog_.text_labels.count(si.target) != 0;
      const bool in_data = prog_.data_labels.count(si.target) != 0;
      if (!in_text && !in_data)
        throw AsmError(si.line, "undefined label '" + si.target + "'");
      if ((si.reloc == RelocKind::kBranch || si.reloc == RelocKind::kCall) && !in_text)
        throw AsmError(si.line, "branch to non-text label '" + si.target + "'");
    }
    for (const auto& r : prog_.data_relocs) {
      if (prog_.text_labels.count(r.symbol) == 0 && prog_.data_labels.count(r.symbol) == 0)
        throw AsmError(0, "undefined label '" + r.symbol + "' in .word");
    }
    if (prog_.text_labels.count(prog_.entry) == 0)
      throw AsmError(0, "entry label '" + prog_.entry + "' not defined");
  }

  Program prog_;
  LineLexer lex_;
  Section section_ = Section::kText;
  std::vector<std::string> pending_targets_;
  int targets_line_ = 0;
};

}  // namespace

Program assemble(std::string_view source) { return Assembler().run(source); }

}  // namespace sofia::assembler
