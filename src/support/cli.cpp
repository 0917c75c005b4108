#include "support/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

namespace sofia::cli {

bool parse_number(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  // strtoull skips leading whitespace and accepts signs, so a bare sign
  // check lets " -5" through and wraps it to 18446744073709551611. Insist
  // the very first character is a digit: that rejects whitespace, embedded
  // signs and " 0x10" in one rule while keeping "0x10" (leading '0') legal.
  if (text[0] < '0' || text[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const std::string s(text);
  const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  out = v;
  return true;
}

std::string shell_quote(std::string_view text) {
  std::string out = "'";
  for (const char c : text) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += '\'';
  return out;
}

namespace {

/// The whole token must be a number (the hand-rolled loops used strtoul
/// and silently read "12abc" as 12) and must fit the target type.
bool parse_uint(std::string_view token, std::uint64_t max, std::uint64_t& out) {
  std::uint64_t v = 0;
  if (!parse_number(token, v) || v > max) return false;
  out = v;
  return true;
}

}  // namespace

Parser::Parser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

Parser& Parser::flag(std::string name, bool& out, std::string help) {
  flags_.push_back({std::move(name), Kind::kBool, &out, "", std::move(help), {}});
  return *this;
}

Parser& Parser::option(std::string name, std::string& out,
                       std::string value_name, std::string help) {
  flags_.push_back({std::move(name), Kind::kString, &out,
                    std::move(value_name), std::move(help), {}});
  return *this;
}

Parser& Parser::option(std::string name, std::uint32_t& out,
                       std::string value_name, std::string help) {
  flags_.push_back({std::move(name), Kind::kUint32, &out,
                    std::move(value_name), std::move(help), {}});
  return *this;
}

Parser& Parser::option(std::string name, std::uint64_t& out,
                       std::string value_name, std::string help) {
  flags_.push_back({std::move(name), Kind::kUint64, &out,
                    std::move(value_name), std::move(help), {}});
  return *this;
}

Parser& Parser::choice(std::string name, std::string& out,
                       std::vector<std::string> choices, std::string help) {
  // The usage placeholder is the choice list itself ("<cycle|functional>"),
  // so --help always names the accepted set.
  std::string placeholder;
  for (const auto& c : choices) {
    if (!placeholder.empty()) placeholder += '|';
    placeholder += c;
  }
  Flag f{std::move(name), Kind::kChoice, &out, std::move(placeholder),
         std::move(help), std::move(choices)};
  flags_.push_back(std::move(f));
  return *this;
}

Parser& Parser::positional(std::string name, std::string& out) {
  positionals_.push_back({std::move(name), &out, true});
  return *this;
}

Parser& Parser::optional_positional(std::string name, std::string& out) {
  positionals_.push_back({std::move(name), &out, false});
  return *this;
}

Parser& Parser::positional_list(std::string name,
                                std::vector<std::string>& out) {
  list_name_ = std::move(name);
  list_out_ = &out;
  return *this;
}

const Parser::Flag* Parser::find(std::string_view name) const {
  for (const auto& f : flags_)
    if (f.name == name) return &f;
  return nullptr;
}

Parser::Result Parser::error(std::string message) {
  Result r;
  r.status = Result::Status::kError;
  r.message = std::move(message);
  return r;
}

Parser::Result Parser::parse(int argc, const char* const* argv) const {
  std::size_t next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Result r;
      r.status = Result::Status::kHelp;
      return r;
    }
    if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      // --name or --name=value
      std::string_view name = arg;
      std::string_view inline_value;
      bool have_inline = false;
      if (const auto eq = arg.find('='); eq != std::string_view::npos) {
        name = arg.substr(0, eq);
        inline_value = arg.substr(eq + 1);
        have_inline = true;
      }
      const Flag* f = find(name);
      if (f == nullptr)
        return error("unknown option '" + std::string(name) + "'");
      if (!f->takes_value()) {
        if (have_inline)
          return error("option '" + f->name + "' does not take a value");
        *static_cast<bool*>(f->out) = true;
        continue;
      }
      std::string_view value;
      if (have_inline) {
        value = inline_value;
      } else {
        if (i + 1 >= argc) return error("option '" + f->name + "' needs a value");
        value = argv[++i];
      }
      switch (f->kind) {
        case Kind::kString:
          *static_cast<std::string*>(f->out) = std::string(value);
          break;
        case Kind::kChoice: {
          bool accepted = false;
          for (const auto& c : f->choices) accepted = accepted || c == value;
          if (!accepted) {
            std::string allowed;
            for (const auto& c : f->choices) {
              if (!allowed.empty()) allowed += ", ";
              allowed += c;
            }
            return error("option '" + f->name + "': invalid value '" +
                         std::string(value) + "' (choose from " + allowed +
                         ")");
          }
          *static_cast<std::string*>(f->out) = std::string(value);
          break;
        }
        case Kind::kUint32: {
          std::uint64_t v = 0;
          if (!parse_uint(value, std::numeric_limits<std::uint32_t>::max(), v))
            return error("option '" + f->name + "': invalid number '" +
                         std::string(value) + "'");
          *static_cast<std::uint32_t*>(f->out) =
              static_cast<std::uint32_t>(v);
          break;
        }
        case Kind::kUint64: {
          std::uint64_t v = 0;
          if (!parse_uint(value, std::numeric_limits<std::uint64_t>::max(), v))
            return error("option '" + f->name + "': invalid number '" +
                         std::string(value) + "'");
          *static_cast<std::uint64_t*>(f->out) = v;
          break;
        }
        case Kind::kBool:
          break;  // unreachable: takes_value() excluded it
      }
      continue;
    }
    if (arg.size() >= 1 && arg[0] == '-' && arg.size() > 1)
      return error("unknown option '" + std::string(arg) + "'");
    // Positional.
    if (next_positional < positionals_.size()) {
      *positionals_[next_positional++].out = std::string(arg);
    } else if (list_out_ != nullptr) {
      list_out_->push_back(std::string(arg));
    } else {
      return error("unexpected argument '" + std::string(arg) + "'");
    }
  }
  for (std::size_t p = next_positional; p < positionals_.size(); ++p)
    if (positionals_[p].required)
      return error("missing required argument <" + positionals_[p].name + ">");
  return {};
}

std::vector<std::string> Parser::forward(
    int argc, const char* const* argv,
    std::span<const std::string_view> drop) const {
  std::vector<std::string> out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::string_view name = arg.substr(0, arg.find('='));
    const Flag* f = arg.starts_with("--") ? find(name) : nullptr;
    // A valued flag spelled "--f v" carries its value in the next token.
    const int values =
        f != nullptr && f->takes_value() && name == arg && i + 1 < argc ? 1
                                                                        : 0;
    if (std::find(drop.begin(), drop.end(), name) == drop.end())
      out.insert(out.end(), argv + i, argv + i + 1 + values);
    i += values;
  }
  return out;
}

std::string Parser::usage() const {
  std::string out = "usage: " + program_ + " [options]";
  for (const auto& p : positionals_)
    out += p.required ? (" " + p.name) : (" [" + p.name + "]");
  if (list_out_ != nullptr) out += " [" + list_name_ + "...]";
  out += '\n';
  if (!summary_.empty()) out += "  " + summary_ + "\n";
  for (const auto& f : flags_) {
    std::string left = "  " + f.name;
    if (f.takes_value()) left += " <" + f.value_name + ">";
    if (left.size() < 26) left.resize(26, ' ');
    out += left + " " + f.help + "\n";
  }
  std::string help_row = "  --help, -h";
  help_row.resize(26, ' ');
  out += help_row + " show this help and exit\n";
  return out;
}

int Parser::fail(const std::string& message, std::FILE* err) const {
  std::fprintf(err, "%s: %s\n%s", program_.c_str(), message.c_str(),
               usage().c_str());
  return 2;
}

void Parser::parse_or_exit(int argc, const char* const* argv) const {
  const Result r = parse(argc, argv);
  switch (r.status) {
    case Result::Status::kOk:
      return;
    case Result::Status::kHelp:
      std::fputs(usage().c_str(), stdout);
      std::exit(0);
    case Result::Status::kError:
      std::exit(fail(r.message));
  }
}

}  // namespace sofia::cli
