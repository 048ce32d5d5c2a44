#include "args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dbn::tools {
namespace {

void usage(std::ostream& out) { out << "usage: tool [--flags]\n"; }

struct Outcome {
  std::optional<int> status;
  std::string out;
  std::string err;
};

Outcome parse(const ArgParser& parser, std::vector<std::string_view> args) {
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  Outcome outcome;
  outcome.status = parser.parse(args);
  outcome.out = ::testing::internal::GetCapturedStdout();
  outcome.err = ::testing::internal::GetCapturedStderr();
  return outcome;
}

// Expects a usage error (status 2 from these parsers) whose message names
// `argument`.
void expect_usage_error(const Outcome& outcome, std::string_view argument) {
  EXPECT_EQ(outcome.status, 2);
  EXPECT_NE(outcome.err.find(argument), std::string::npos) << outcome.err;
  EXPECT_NE(outcome.err.find("usage: tool"), std::string::npos);
}

TEST(ArgParser, AcceptsBothValueForms) {
  std::string out;
  std::uint32_t n = 0;
  bool quiet = false;
  ArgParser parser("tool", 2, usage);
  parser.flag("--out", out).flag("--n", n).flag("--quiet", quiet);
  EXPECT_EQ(parse(parser, {"--out=a.json", "--n", "7"}).status, std::nullopt);
  EXPECT_EQ(out, "a.json");
  EXPECT_EQ(n, 7u);
  EXPECT_FALSE(quiet);
  EXPECT_EQ(parse(parser, {"--out", "b.json", "--n=8", "--quiet"}).status,
            std::nullopt);
  EXPECT_EQ(out, "b.json");
  EXPECT_EQ(n, 8u);
  EXPECT_TRUE(quiet);
  // An empty value after '=' is a value.
  EXPECT_EQ(parse(parser, {"--out="}).status, std::nullopt);
  EXPECT_EQ(out, "");
}

TEST(ArgParser, RejectsAnUnknownFlag) {
  bool quiet = false;
  ArgParser parser("tool", 2, usage);
  parser.flag("--quiet", quiet);
  expect_usage_error(parse(parser, {"--quiet", "--bogus-flag"}),
                     "unknown flag --bogus-flag");
  expect_usage_error(parse(parser, {"--bogus=1"}), "unknown flag --bogus");
  expect_usage_error(parse(parser, {"-x"}), "unknown flag -x");
}

TEST(ArgParser, RejectsAMissingValue) {
  std::string out;
  bool quiet = false;
  ArgParser parser("tool", 2, usage);
  parser.flag("--out", out).flag("--quiet", quiet);
  expect_usage_error(parse(parser, {"--out"}), "--out needs a value");
  // In the space form the next flag is not taken as the value.
  expect_usage_error(parse(parser, {"--out", "--quiet"}),
                     "--out needs a value");
  // A switch takes none.
  expect_usage_error(parse(parser, {"--quiet=1"}), "--quiet takes no value");
}

TEST(ArgParser, FillsPositionalsInOrderAndRejectsStrayOnes) {
  std::uint32_t d = 0;
  std::size_t k = 0;
  std::optional<std::string> word;
  ArgParser parser("tool", 2, usage);
  parser.positional("<d>", d).positional("<k>", k).positional("<X>", word);
  EXPECT_EQ(parse(parser, {"2", "4"}).status, std::nullopt);
  EXPECT_EQ(d, 2u);
  EXPECT_EQ(k, 4u);
  EXPECT_FALSE(word.has_value());
  EXPECT_EQ(parse(parser, {"3", "5", "0110"}).status, std::nullopt);
  EXPECT_EQ(word, "0110");
  expect_usage_error(parse(parser, {"2", "4", "0110", "1001"}),
                     "unexpected argument '1001'");
  expect_usage_error(parse(parser, {"2"}), "missing <k>");
  expect_usage_error(parse(parser, {"2x", "4"}), "bad value for <d>: '2x'");
}

TEST(ArgParser, ParsesNumbersWholeIntoTheTargetType) {
  std::uint16_t port = 0;
  std::uint32_t d = 0;
  double rate = 1.0;
  int interval = 1000;
  ArgParser parser("tool", 2, usage);
  parser.flag("--port", port)
      .flag("--d", d)
      .flag("--rate", rate, parse_positive<double>)
      .flag("--interval", interval, parse_positive<int>);
  EXPECT_EQ(parse(parser, {"--port=65535", "--d=4294967295"}).status,
            std::nullopt);
  EXPECT_EQ(port, 65535);
  EXPECT_EQ(d, 4294967295u);
  expect_usage_error(parse(parser, {"--port=65536"}),
                     "bad value for --port: '65536'");
  expect_usage_error(parse(parser, {"--port", "70000"}),
                     "bad value for --port: '70000'");
  expect_usage_error(parse(parser, {"--d=4294967296"}),
                     "bad value for --d: '4294967296'");
  for (const std::string_view bad : {"-1", "+1", " 1", "1x", "0x10", ""}) {
    expect_usage_error(parse(parser, {"--d", bad}), "--d");
  }
  for (const std::string_view bad : {"abc", "inf", "nan", "0", "0.0", "1e400"}) {
    expect_usage_error(parse(parser, {"--rate", bad}), "--rate");
  }
  expect_usage_error(parse(parser, {"--interval=0"}),
                     "bad value for --interval: '0'");
  EXPECT_EQ(parse(parser, {"--rate=0.25", "--interval", "5"}).status,
            std::nullopt);
  EXPECT_EQ(rate, 0.25);
  EXPECT_EQ(interval, 5);
}

TEST(ArgParser, KeepsAValueWithSpacesAndDashesWhole) {
  std::string spawn;
  std::uint64_t requests = 0;
  ArgParser parser("tool", 2, usage);
  parser.flag("--spawn", spawn).flag("--requests", requests);
  EXPECT_EQ(parse(parser, {"--spawn=dbn serve 2 10 --stdio --threads=2 -- x",
                           "--requests=5"})
                .status,
            std::nullopt);
  EXPECT_EQ(spawn, "dbn serve 2 10 --stdio --threads=2 -- x");
  EXPECT_EQ(requests, 5u);
  EXPECT_EQ(parse(parser, {"--spawn", "dbn serve 2 10 --stdio"}).status,
            std::nullopt);
  EXPECT_EQ(spawn, "dbn serve 2 10 --stdio");
}

TEST(ArgParser, RepeatedFlagsCollectOrOverride) {
  std::vector<std::string> replays;
  std::uint64_t seed = 0;
  ArgParser parser("tool", 2, usage);
  parser.flag("--replay", replays).flag("--seed", seed);
  EXPECT_EQ(parse(parser, {"--replay", "tests/corpus", "--seed=1",
                           "--replay=undirected:2:4:0110:1001", "--seed", "9"})
                .status,
            std::nullopt);
  EXPECT_EQ(replays, (std::vector<std::string>{"tests/corpus",
                                               "undirected:2:4:0110:1001"}));
  EXPECT_EQ(seed, 9u);
}

TEST(ArgParser, ConvertsChoicesThroughTheDeclaredFunction) {
  std::optional<bool> open_loop;
  ArgParser parser("tool", 2, usage);
  parser.flag("--mode", open_loop, [](std::string_view mode) {
    return mode == "open" || mode == "closed"
               ? std::optional<bool>(mode == "open")
               : std::nullopt;
  });
  EXPECT_EQ(parse(parser, {"--mode=open"}).status, std::nullopt);
  EXPECT_EQ(open_loop, true);
  expect_usage_error(parse(parser, {"--mode", "half"}),
                     "bad value for --mode: 'half'");
}

TEST(ArgParser, HelpPrintsUsageOnStdoutAndReturnsZero) {
  std::uint32_t d = 0;
  ArgParser parser("tool", 1, usage);
  parser.positional("<d>", d);
  for (const std::string_view help : {"--help", "-h"}) {
    // Even next to arguments that would be usage errors.
    const Outcome outcome = parse(parser, {"--bogus", help});
    EXPECT_EQ(outcome.status, 0);
    EXPECT_EQ(outcome.out, "usage: tool [--flags]\n");
    EXPECT_EQ(outcome.err, "");
  }
  const Outcome error = parse(parser, {"--bogus"});
  EXPECT_EQ(error.status, 1);
  EXPECT_EQ(error.out, "");
  EXPECT_EQ(parser.fail("need --port"), 1);
}

}  // namespace
}  // namespace dbn::tools
