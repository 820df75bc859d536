/**
 * @file
 * Unit tests for the sn40l_run flag parser (tools/flag_parser.h):
 * unknown flags name their subcommand, missing values and duplicate
 * flags fail, --flag=value and --flag value parse identically, --help
 * short-circuits, parseList rejects malformed lists, the strict number
 * conversions read whole strings only, and a bad value or a library
 * FatalError reaches the user as a usage error naming the flag.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "tools/flag_parser.h"

using namespace sn40l;
using tools::FlagParser;
using tools::BadNumber;
using tools::FlagUsageError;
using tools::parseDouble;
using tools::parseInteger;
using tools::parseList;
using tools::splitEqualsArgs;

namespace {

void
testHelp(std::ostream &os)
{
    os << "usage: sn40l_run fake [flags]\n";
}

/** Expect a FlagUsageError whose message contains @p needle. */
template <typename Fn>
void
expectUsageError(Fn &&fn, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected FlagUsageError containing '" << needle << "'";
    } catch (const FlagUsageError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message was: " << e.what();
        EXPECT_STREQ(e.subcommand().c_str(), "fake");
    }
}

} // namespace

TEST(FlagParser, ParsesValuesAndBareFlags)
{
    FlagParser p("fake", testHelp);
    int experts = 0;
    bool prefetch = false;
    p.value("--experts",
            [&](const std::string &v) { experts = std::stoi(v); });
    p.flag("--prefetch", [&]() { prefetch = true; });

    std::ostringstream help;
    EXPECT_FALSE(p.parse({"--experts", "150", "--prefetch"}, help));
    EXPECT_EQ(experts, 150);
    EXPECT_TRUE(prefetch);
    EXPECT_TRUE(help.str().empty());
}

TEST(FlagParser, EqualsSpellingMatchesSpaceSpelling)
{
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"--experts=42"},
          std::vector<std::string>{"--experts", "42"}}) {
        FlagParser p("fake", testHelp);
        int experts = 0;
        p.value("--experts",
                [&](const std::string &v) { experts = std::stoi(v); });
        std::ostringstream help;
        EXPECT_FALSE(p.parse(args, help));
        EXPECT_EQ(experts, 42);
    }
}

TEST(FlagParser, SplitEqualsArgsOnlyTouchesDoubleDashFlags)
{
    std::vector<std::string> out =
        splitEqualsArgs({"--a=1", "plain=2", "-j", "4"});
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out[0], "--a");
    EXPECT_EQ(out[1], "1");
    EXPECT_EQ(out[2], "plain=2"); // no leading --, left alone
    EXPECT_EQ(out[3], "-j");
    EXPECT_EQ(out[4], "4");
}

TEST(FlagParser, UnknownFlagNamesTheSubcommand)
{
    FlagParser p("fake", testHelp);
    p.flag("--known", []() {});
    std::ostringstream help;
    expectUsageError([&]() { p.parse({"--bogus"}, help); },
                     "unknown fake flag '--bogus'");
}

TEST(FlagParser, MissingValueFails)
{
    FlagParser p("fake", testHelp);
    p.value("--experts", [](const std::string &) {});
    std::ostringstream help;
    expectUsageError([&]() { p.parse({"--experts"}, help); },
                     "expects a value");
}

TEST(FlagParser, DuplicateFlagFails)
{
    FlagParser p("fake", testHelp);
    int experts = 0;
    p.value("--experts",
            [&](const std::string &v) { experts = std::stoi(v); });
    std::ostringstream help;
    expectUsageError(
        [&]() { p.parse({"--experts", "1", "--experts", "2"}, help); },
        "given more than once");

    // Bare flags are rejected on repeat too.
    FlagParser q("fake", testHelp);
    q.flag("--prefetch", []() {});
    expectUsageError(
        [&]() { q.parse({"--prefetch", "--prefetch"}, help); },
        "given more than once");
}

TEST(FlagParser, ParseStateResetsBetweenRuns)
{
    // The seen-set must reset, or a reused parser would report a
    // duplicate across independent parses.
    FlagParser p("fake", testHelp);
    int experts = 0;
    p.value("--experts",
            [&](const std::string &v) { experts = std::stoi(v); });
    std::ostringstream help;
    EXPECT_FALSE(p.parse({"--experts", "1"}, help));
    EXPECT_FALSE(p.parse({"--experts", "2"}, help));
    EXPECT_EQ(experts, 2);
}

TEST(FlagParser, HelpShortCircuitsAndPrints)
{
    FlagParser p("fake", testHelp);
    bool touched = false;
    p.flag("--touch", [&]() { touched = true; });
    std::ostringstream help;
    EXPECT_TRUE(p.parse({"--help", "--touch"}, help));
    EXPECT_FALSE(touched); // nothing after --help is applied
    EXPECT_NE(help.str().find("usage: sn40l_run fake"),
              std::string::npos);

    std::ostringstream help2;
    EXPECT_TRUE(p.parse({"-h"}, help2));
    EXPECT_FALSE(help2.str().empty());
}

TEST(FlagParser, RegisteringTheSameFlagTwiceIsAProgrammerError)
{
    FlagParser p("fake", testHelp);
    p.flag("--x", []() {});
    EXPECT_THROW(p.flag("--x", []() {}), std::logic_error);
    EXPECT_THROW(p.value("--x", [](const std::string &) {}),
                 std::logic_error);
}

TEST(FlagParser, FailThrowsWithSubcommand)
{
    FlagParser p("fake", testHelp);
    expectUsageError([&]() { p.fail("custom validation message"); },
                     "custom validation message");
}

TEST(ParseListFn, ParsesCommaSeparatedValues)
{
    FlagParser p("fake", testHelp);
    std::vector<int> v = parseList<int>(
        p, "1,2,3", +[](const std::string &s) { return std::stoi(s); });
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], 1);
    EXPECT_EQ(v[2], 3);
}

TEST(ParseListFn, EmptyElementsAndEmptyListsFail)
{
    FlagParser p("fake", testHelp);
    auto parse = +[](const std::string &s) { return std::stoi(s); };
    expectUsageError([&]() { parseList<int>(p, "1,,3", parse); },
                     "empty element");
    expectUsageError([&]() { parseList<int>(p, "", parse); },
                     "empty list");
}

TEST(StrictNumbers, IntegersMustBeWholeAndInRange)
{
    EXPECT_EQ(parseInteger<int>("150"), 150);
    EXPECT_EQ(parseInteger<int>("-3"), -3);
    EXPECT_EQ(parseInteger<int>("+7"), 7);
    EXPECT_EQ(parseInteger<std::int64_t>("-1"), -1);
    EXPECT_EQ(parseInteger<std::uint64_t>("18446744073709551615"),
              UINT64_MAX);
    // std::stoi read "1e3" as 1 and "12abc" as 12.
    for (const char *v : {"1e3", "12abc", "abc", "", " 5", "5 ", "1.5",
                          "+-5", "nan", "inf", "0x10"})
        EXPECT_THROW(parseInteger<int>(v), BadNumber) << "'" << v << "'";
    EXPECT_THROW(parseInteger<int>("99999999999"), BadNumber);
    EXPECT_THROW(parseInteger<std::uint64_t>("-1"), BadNumber);
}

TEST(StrictNumbers, DoublesMustBeWhole)
{
    EXPECT_DOUBLE_EQ(parseDouble("2.5"), 2.5);
    EXPECT_DOUBLE_EQ(parseDouble("1e3"), 1000.0);
    EXPECT_DOUBLE_EQ(parseDouble("-0.5"), -0.5);
    // NaN and infinity parse; the library validators reject them.
    EXPECT_TRUE(std::isnan(parseDouble("nan")));
    EXPECT_TRUE(std::isinf(parseDouble("inf")));
    for (const char *v : {"1e3x", "2.5.1", "abc", "", " 1", "1 ", "1e400"})
        EXPECT_THROW(parseDouble(v), BadNumber) << "'" << v << "'";
}

TEST(FlagParser, BadNumberNamesTheFlagAndValue)
{
    FlagParser p("fake", testHelp);
    int requests = 0;
    p.value("--requests",
            [&](const std::string &v) { requests = parseInteger<int>(v); });
    std::ostringstream help;
    expectUsageError([&]() { p.parse({"--requests", "1e3"}, help); },
                     "flag --requests: '1e3' is not a valid integer");
    expectUsageError([&]() { p.parse({"--requests", "abc"}, help); },
                     "flag --requests: 'abc'");
    expectUsageError(
        [&]() { p.parse({"--requests", "99999999999"}, help); },
        "flag --requests: '99999999999' is not a valid integer");
    EXPECT_EQ(requests, 0);
}

TEST(FlagParser, LibraryErrorsBecomeUsageErrors)
{
    FlagParser p("fake", testHelp);
    p.value("--routing", [](const std::string &v) {
        sim::fatal("unknown routing distribution '" + v + "'");
    });
    std::ostringstream help;
    expectUsageError([&]() { p.parse({"--routing", "bogus"}, help); },
                     "flag --routing: unknown routing distribution");
    // validate() drops sim::fatal's "fatal: " prefix.
    try {
        p.validate([] { sim::fatal("ServingConfig: --batch 0 bad"); });
        FAIL() << "validate did not throw";
    } catch (const FlagUsageError &e) {
        EXPECT_STREQ(e.what(), "ServingConfig: --batch 0 bad");
    }
    EXPECT_NO_THROW(p.validate([] {}));
}
