// Declarative command-line flag parser shared by the tools/ front-ends,
// replacing five hand-rolled argv loops that each had their own quirks
// (flags recognized only in argv[1], silent acceptance of typos, ...).
//
//   cli::Parser p("sofia_run", "execute a saved image on the simulated device");
//   p.option("--key-seed", seed, "n", "device KeySet seed");
//   p.flag("--stats", stats, "print the detailed statistics block");
//   p.positional("image.img", path);
//   p.parse_or_exit(argc, argv);
//
// Conventions (uniform across every tool): `--flag value` and
// `--flag=value` are both accepted; `--help`/`-h` prints the generated
// usage to stdout and exits 0; unknown flags, missing values and malformed
// numbers print a diagnostic plus the usage to stderr and exit 2.
//
// parse() is exit-free and returns a Result so test_cli can exercise every
// path in-process; parse_or_exit() is the one-liner the tools call.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sofia::cli {

/// Strict unsigned parse (decimal or 0x hex; the whole token must be the
/// number). Shared by the parser's typed options and tools that need
/// presence-sensitive flags (e.g. --key-seed, where 0 is a valid seed).
bool parse_number(std::string_view text, std::uint64_t& out);

/// `text` as one single-quoted sh word (a ' becomes '\''), so a command
/// line built from it passes the exact bytes on.
std::string shell_quote(std::string_view text);

class Parser {
 public:
  /// `program` is the name used in diagnostics; `summary` is the one-line
  /// description printed at the top of the usage text.
  explicit Parser(std::string program, std::string summary = "");

  // ---- declarations (order defines the usage text) ------------------------

  /// Boolean switch: present -> true.
  Parser& flag(std::string name, bool& out, std::string help);

  /// Valued options. `value_name` is the usage placeholder, e.g. "n".
  Parser& option(std::string name, std::string& out, std::string value_name,
                 std::string help);
  Parser& option(std::string name, std::uint32_t& out, std::string value_name,
                 std::string help);
  Parser& option(std::string name, std::uint64_t& out, std::string value_name,
                 std::string help);

  /// Choice-typed option: the value must be one of `choices` (exact match).
  /// The generated usage lists the choices as the placeholder
  /// ("--backend <cycle|functional>"); any other value is a parse error
  /// (diagnostic names the accepted set, usage + exit 2 via parse_or_exit).
  Parser& choice(std::string name, std::string& out,
                 std::vector<std::string> choices, std::string help);

  /// Required positional argument.
  Parser& positional(std::string name, std::string& out);

  /// Optional positional argument.
  Parser& optional_positional(std::string name, std::string& out);

  /// Zero-or-more trailing positionals (declare last).
  Parser& positional_list(std::string name, std::vector<std::string>& out);

  // ---- parsing ------------------------------------------------------------

  struct Result {
    enum class Status { kOk, kHelp, kError };
    Status status = Status::kOk;
    std::string message;  ///< diagnostic when status == kError

    bool ok() const { return status == Status::kOk; }
  };

  /// Parse without printing or exiting.
  Result parse(int argc, const char* const* argv) const;

  /// Parse; on --help print usage to stdout and exit 0, on error print the
  /// diagnostic and usage to stderr and exit 2.
  void parse_or_exit(int argc, const char* const* argv) const;

  /// The arguments a parse() of argv accepted, verbatim and in order,
  /// without the flags named in `drop` and their values: what a
  /// coordinating tool hands on to its workers.
  std::vector<std::string> forward(
      int argc, const char* const* argv,
      std::span<const std::string_view> drop) const;

  /// The generated usage text.
  std::string usage() const;

  /// Report a post-parse validation failure the same way parse errors are
  /// reported (diagnostic + usage to stderr); returns the conventional
  /// exit code 2 so callers can `return parser.fail(...)`.
  int fail(const std::string& message, std::FILE* err = stderr) const;

 private:
  enum class Kind { kBool, kString, kUint32, kUint64, kChoice };

  struct Flag {
    std::string name;
    Kind kind = Kind::kBool;
    void* out = nullptr;
    std::string value_name;
    std::string help;
    std::vector<std::string> choices;  ///< kChoice: the accepted values
    bool takes_value() const { return kind != Kind::kBool; }
  };

  struct Positional {
    std::string name;
    std::string* out = nullptr;
    bool required = false;
  };

  const Flag* find(std::string_view name) const;
  static Result error(std::string message);

  std::string program_;
  std::string summary_;
  std::vector<Flag> flags_;
  std::vector<Positional> positionals_;
  std::string list_name_;
  std::vector<std::string>* list_out_ = nullptr;
};

}  // namespace sofia::cli
