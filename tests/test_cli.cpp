// Tests for the declarative CLI flag parser (src/support/cli.hpp) the five
// tools build their front ends on: typed flags, --flag=value, positional
// handling, the generated usage text and the uniform rejection semantics
// (unknown flag / missing value / malformed number -> exit 2 by
// convention, surfaced here as Result::Status::kError).
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "support/cli.hpp"

namespace sofia::cli {
namespace {

Parser::Result parse(const Parser& p, std::vector<const char*> args) {
  args.insert(args.begin(), "tool");
  return p.parse(static_cast<int>(args.size()), args.data());
}

TEST(Cli, ParsesTypedFlagsAndOptions) {
  bool verbose = false;
  std::string name;
  std::uint32_t count = 7;
  std::uint64_t seed = 0;
  Parser p("tool");
  p.flag("--verbose", verbose, "chatty")
      .option("--name", name, "s", "a string")
      .option("--count", count, "n", "a u32")
      .option("--seed", seed, "n", "a u64");
  const auto r = parse(p, {"--verbose", "--name", "abc", "--seed", "0x10"});
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_TRUE(verbose);
  EXPECT_EQ(name, "abc");
  EXPECT_EQ(count, 7u);  // untouched default
  EXPECT_EQ(seed, 0x10u);
}

TEST(Cli, AcceptsEqualsSyntax) {
  std::string name;
  std::uint32_t count = 0;
  Parser p("tool");
  p.option("--name", name, "s", "").option("--count", count, "n", "");
  ASSERT_TRUE(parse(p, {"--name=x=y", "--count=12"}).ok());
  EXPECT_EQ(name, "x=y");  // only the first '=' splits
  EXPECT_EQ(count, 12u);
}

TEST(Cli, RejectsUnknownFlags) {
  Parser p("tool");
  const auto r = parse(p, {"--bogus"});
  EXPECT_EQ(r.status, Parser::Result::Status::kError);
  EXPECT_NE(r.message.find("--bogus"), std::string::npos);
  EXPECT_EQ(parse(p, {"-x"}).status, Parser::Result::Status::kError);
}

TEST(Cli, RejectsMissingValuesAndMalformedNumbers) {
  std::uint32_t count = 0;
  Parser p("tool");
  p.option("--count", count, "n", "");
  EXPECT_EQ(parse(p, {"--count"}).status, Parser::Result::Status::kError);
  const auto bad = parse(p, {"--count", "12abc"});
  EXPECT_EQ(bad.status, Parser::Result::Status::kError);
  EXPECT_NE(bad.message.find("12abc"), std::string::npos);
  // Out-of-range for u32.
  EXPECT_EQ(parse(p, {"--count", "4294967296"}).status,
            Parser::Result::Status::kError);
  // A bool flag must not take a value.
  bool b = false;
  Parser q("tool");
  q.flag("--b", b, "");
  EXPECT_EQ(parse(q, {"--b=1"}).status, Parser::Result::Status::kError);
}

TEST(Cli, ChoiceAcceptsOnlyTheListedValues) {
  std::string backend = "cycle";
  Parser p("tool");
  p.choice("--backend", backend, {"cycle", "functional"}, "which simulator");
  ASSERT_TRUE(parse(p, {"--backend", "functional"}).ok());
  EXPECT_EQ(backend, "functional");
  ASSERT_TRUE(parse(p, {"--backend=cycle"}).ok());
  EXPECT_EQ(backend, "cycle");

  const auto bad = parse(p, {"--backend", "warp"});
  EXPECT_EQ(bad.status, Parser::Result::Status::kError);
  // The diagnostic names the rejected value and the accepted set.
  EXPECT_NE(bad.message.find("warp"), std::string::npos) << bad.message;
  EXPECT_NE(bad.message.find("cycle, functional"), std::string::npos)
      << bad.message;
  EXPECT_EQ(backend, "cycle");  // unchanged on error
}

TEST(Cli, ChoiceUsageListsTheChoices) {
  std::string backend;
  std::string cipher;
  Parser p("tool");
  p.choice("--backend", backend, {"cycle", "functional"}, "which simulator")
      .choice("--cipher", cipher, {"rectangle80", "speck64"}, "which cipher");
  const auto u = p.usage();
  EXPECT_NE(u.find("--backend <cycle|functional>"), std::string::npos) << u;
  EXPECT_NE(u.find("--cipher <rectangle80|speck64>"), std::string::npos) << u;
}

TEST(Cli, PositionalsRequiredOptionalAndList) {
  std::string in;
  std::string out;
  Parser p("tool");
  p.positional("in", in).optional_positional("out", out);
  EXPECT_EQ(parse(p, {}).status, Parser::Result::Status::kError);  // in missing
  ASSERT_TRUE(parse(p, {"a.s"}).ok());
  EXPECT_EQ(in, "a.s");
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(parse(p, {"a.s", "b.img"}).ok());
  EXPECT_EQ(out, "b.img");
  EXPECT_EQ(parse(p, {"a", "b", "c"}).status, Parser::Result::Status::kError);

  std::string first;
  std::vector<std::string> rest;
  Parser q("tool");
  q.positional("first", first).positional_list("rest", rest);
  ASSERT_TRUE(parse(q, {"a", "b", "c"}).ok());
  EXPECT_EQ(first, "a");
  EXPECT_EQ(rest, (std::vector<std::string>{"b", "c"}));
}

TEST(Cli, FlagsAndPositionalsMixInAnyOrder) {
  bool quiet = false;
  std::string in;
  std::string out;
  Parser p("tool");
  p.flag("--quiet", quiet, "").positional("in", in).positional("out", out);
  ASSERT_TRUE(parse(p, {"a.s", "--quiet", "b.img"}).ok());
  EXPECT_TRUE(quiet);
  EXPECT_EQ(in, "a.s");
  EXPECT_EQ(out, "b.img");
}

TEST(Cli, HelpShortCircuits) {
  std::string in;
  Parser p("tool");
  p.positional("in", in);
  EXPECT_EQ(parse(p, {"--help"}).status, Parser::Result::Status::kHelp);
  EXPECT_EQ(parse(p, {"-h"}).status, Parser::Result::Status::kHelp);
}

TEST(Cli, UsageNamesEveryFlagAndPositional) {
  bool v = false;
  std::uint32_t n = 0;
  std::string in;
  Parser p("tool", "does a thing");
  p.flag("--verbose", v, "chatty").option("--count", n, "N", "how many");
  p.positional("input.s", in);
  const auto u = p.usage();
  EXPECT_NE(u.find("usage: tool"), std::string::npos) << u;
  EXPECT_NE(u.find("does a thing"), std::string::npos) << u;
  EXPECT_NE(u.find("--verbose"), std::string::npos) << u;
  EXPECT_NE(u.find("--count <N>"), std::string::npos) << u;
  EXPECT_NE(u.find("how many"), std::string::npos) << u;
  EXPECT_NE(u.find("input.s"), std::string::npos) << u;
  EXPECT_NE(u.find("--help"), std::string::npos) << u;
}

TEST(Cli, ParseNumberIsStrict) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_number("42", v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(parse_number("0xff", v));
  EXPECT_EQ(v, 255u);
  EXPECT_FALSE(parse_number("", v));
  EXPECT_FALSE(parse_number("12abc", v));
  EXPECT_FALSE(parse_number("abc", v));
}

TEST(Cli, ParseNumberRejectsAnythingBeforeTheFirstDigit) {
  // Regression: strtoull skips leading whitespace, so " -5" used to pass
  // the old text[0] == '-' sign check and wrap to 18446744073709551611.
  std::uint64_t v = 77;
  EXPECT_FALSE(parse_number(" -5", v));
  EXPECT_FALSE(parse_number("\t-5", v));
  EXPECT_FALSE(parse_number("-5", v));
  EXPECT_FALSE(parse_number("+5", v));
  EXPECT_FALSE(parse_number(" +5", v));
  EXPECT_FALSE(parse_number(" 5", v));
  EXPECT_FALSE(parse_number(" 0x10", v));
  EXPECT_EQ(v, 77u);  // out is untouched on every rejection
  EXPECT_TRUE(parse_number("0x10", v));
  EXPECT_EQ(v, 16u);
}

TEST(Cli, NumericFlagsOfEveryKindRejectWhitespaceNegatives) {
  // The user-visible shape of the same regression: --threads " -5" must be
  // a usage error on both unsigned widths, never a 2^64-ish thread count.
  std::uint32_t threads = 1;
  std::uint64_t seed = 1;
  Parser p("tool");
  p.option("--threads", threads, "N", "").option("--seed", seed, "n", "");
  for (const char* bad : {" -5", "-5", "+5", " 5", " 0x10"}) {
    const auto r32 = parse(p, {"--threads", bad});
    EXPECT_EQ(r32.status, Parser::Result::Status::kError) << "'" << bad << "'";
    EXPECT_NE(r32.message.find(bad), std::string::npos) << r32.message;
    const auto r64 = parse(p, {"--seed", bad});
    EXPECT_EQ(r64.status, Parser::Result::Status::kError) << "'" << bad << "'";
  }
  // The equals syntax goes through the same path.
  EXPECT_EQ(parse(p, {"--threads= -5"}).status, Parser::Result::Status::kError);
  EXPECT_EQ(threads, 1u);
  EXPECT_EQ(seed, 1u);
}

TEST(Cli, ForwardKeepsAcceptedArgumentsVerbatimAndDropsTheNamedFlags) {
  // A --workers coordinator hands its own flags on to every worker: both
  // the "--f v" and "--f=v" spellings survive byte for byte, values with
  // spaces and quotes included, and the dropped flags leave no value
  // behind (a dropped "--json out.json" must not strand "out.json").
  bool smoke = false;
  bool quiet = false;
  std::string cache;
  std::string workload;
  std::string json;
  std::string launch;
  std::uint32_t jobs = 0;
  std::uint32_t workers = 0;
  Parser p("tool");
  p.flag("--smoke", smoke, "")
      .flag("--quiet", quiet, "")
      .option("--cache", cache, "DIR", "")
      .option("--workload", workload, "NAME", "")
      .option("--json", json, "PATH", "")
      .option("--launch", launch, "CMD", "")
      .option("--jobs", jobs, "N", "")
      .option("--workers", workers, "N", "");
  std::vector<const char*> args = {
      "tool",        "--smoke",    "--cache",     "/tmp/my cache",
      "--workers=3", "--jobs=50",  "--launch",    "ssh host 'sofia'",
      "--json",      "out.json",   "--quiet",     "--workload=it's here",
      "--json=-",    "--workload", "a=b"};
  const int argc = static_cast<int>(args.size());
  ASSERT_TRUE(p.parse(argc, args.data()).ok());
  constexpr std::string_view drop[] = {"--workers", "--launch", "--json",
                                       "--quiet"};
  EXPECT_EQ(p.forward(argc, args.data(), drop),
            (std::vector<std::string>{"--smoke", "--cache", "/tmp/my cache",
                                      "--jobs=50", "--workload=it's here",
                                      "--workload", "a=b"}));
  EXPECT_EQ(p.forward(argc, args.data(), {}).size(), args.size() - 1);
}

TEST(Cli, ShellQuoteMakesOneWordOfAnyText) {
  EXPECT_EQ(shell_quote("sofia_sweep"), "'sofia_sweep'");
  EXPECT_EQ(shell_quote("/tmp/my cache"), "'/tmp/my cache'");
  EXPECT_EQ(shell_quote("it's"), "'it'\\''s'");
  EXPECT_EQ(shell_quote(""), "''");
}

}  // namespace
}  // namespace sofia::cli
