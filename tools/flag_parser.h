/**
 * @file
 * Table-driven subcommand flag parsing for sn40l_run, extracted into a
 * header so the parser is unit-testable (tests/test_flag_parser.cc).
 *
 * Each subcommand registers its flag specs (shared groups plus its
 * own), then parse() walks argv: "--flag value" and "--flag=value"
 * both work, "--help"/"-h" prints the subcommand help, a flag given
 * twice is rejected, and an unrecognized flag fails with an error
 * naming the subcommand. Errors throw FlagUsageError instead of
 * exiting, so the tool's main() owns the exit path and tests can
 * assert on messages.
 */

#ifndef SN40L_TOOLS_FLAG_PARSER_H
#define SN40L_TOOLS_FLAG_PARSER_H

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <functional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/log.h"

namespace sn40l::tools {

/**
 * A command-line usage error: unknown flag, missing value, duplicate
 * flag, or a failed cross-flag validation. what() is the message to
 * print; subcommand() names the subcommand whose --help to suggest.
 */
class FlagUsageError : public std::runtime_error
{
  public:
    FlagUsageError(std::string subcommand, const std::string &msg)
        : std::runtime_error(msg), subcommand_(std::move(subcommand))
    {
    }

    const std::string &subcommand() const { return subcommand_; }

  private:
    std::string subcommand_;
};

/**
 * A flag value that is not a number of the expected kind; what() reads
 * "'<value>' is not a valid ...". FlagParser::parse prefixes the flag.
 */
class BadNumber : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/**
 * Strict integer conversion: the whole string must be one integer that
 * fits @p Int, so "1e3" and "12abc" fail instead of reading 1 and 12
 * (std::stoi's prefix parse). A leading '+' is accepted.
 */
template <typename Int>
Int
parseInteger(const std::string &s)
{
    static_assert(std::is_integral_v<Int>);
    const char *first = s.data();
    const char *last = first + s.size();
    if (s.size() > 1 && s[0] == '+' && s[1] != '-')
        ++first;
    Int value{};
    auto [end, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::result_out_of_range)
        throw BadNumber("'" + s + "' is not a valid integer (out of range)");
    if (ec != std::errc() || end != last)
        throw BadNumber("'" + s + "' is not a valid integer");
    return value;
}

/**
 * Strict floating-point conversion: the whole string must be one number
 * as std::strtod reads it ("1e3", "nan" and "inf" parse; the library
 * validators own the range rules). Overflow and underflow fail.
 */
inline double
parseDouble(const std::string &s)
{
    char *end = nullptr;
    errno = 0;
    double value = std::strtod(s.c_str(), &end);
    if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])) ||
        end != s.c_str() + s.size())
        throw BadNumber("'" + s + "' is not a valid number");
    if (errno == ERANGE)
        throw BadNumber("'" + s + "' is not a valid number (out of range)");
    return value;
}

/** A FatalError's message without the "fatal: " prefix sim::fatal adds. */
inline std::string
fatalMessage(const sim::FatalError &e)
{
    std::string msg = e.what();
    const std::string prefix = "fatal: ";
    return msg.rfind(prefix, 0) == 0 ? msg.substr(prefix.size()) : msg;
}

/**
 * Flatten "--flag=value" arguments into "--flag value" so both
 * spellings parse through the same loop.
 */
inline std::vector<std::string>
splitEqualsArgs(const std::vector<std::string> &args)
{
    std::vector<std::string> out;
    out.reserve(args.size());
    for (const std::string &arg : args) {
        auto eq = arg.find('=');
        if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
            out.push_back(arg.substr(0, eq));
            out.push_back(arg.substr(eq + 1));
        } else {
            out.push_back(arg);
        }
    }
    return out;
}

class FlagParser
{
  public:
    FlagParser(const char *subcommand, void (*help)(std::ostream &))
        : subcommand_(subcommand), help_(help)
    {
    }

    /** Register a value-less flag ("--prefetch"). */
    void
    flag(const char *name, std::function<void()> apply)
    {
        addSpec(name, false,
                [apply = std::move(apply)](const std::string &) {
                    apply();
                });
    }

    /** Register a flag that consumes the next argument. */
    void
    value(const char *name, std::function<void(const std::string &)> apply)
    {
        addSpec(name, true, std::move(apply));
    }

    /**
     * Register a numeric flag that stores its strictly converted value
     * in @p target and, when given, sets @p seen.
     */
    template <typename T>
    void
    number(const char *name, T &target, bool *seen = nullptr)
    {
        value(name, [&target, seen](const std::string &v) {
            if constexpr (std::is_integral_v<T>)
                target = parseInteger<T>(v);
            else
                target = parseDouble(v);
            if (seen)
                *seen = true;
        });
    }

    /** Shared failure path for parse and cross-flag validation. */
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw FlagUsageError(subcommand_, msg);
    }

    /**
     * Run a library validator. Its sim::FatalError becomes a usage
     * error, so a config rule fails like a flag error: the --help hint
     * and exit status 1.
     */
    template <typename Validate>
    void
    validate(Validate &&check) const
    {
        try {
            check();
        } catch (const sim::FatalError &e) {
            fail(fatalMessage(e));
        }
    }

    /**
     * Parse an argument list; "--flag=value" and "--flag value" both
     * work, and a value the flag cannot convert (or an unknown name a
     * library lookup rejects) fails naming the flag.
     * @return true if --help was printed (caller should return 0).
     */
    bool
    parse(const std::vector<std::string> &raw_args,
          std::ostream &help_out)
    {
        std::vector<std::string> args = splitEqualsArgs(raw_args);
        for (Spec &s : specs_)
            s.seen = false;
        for (std::size_t i = 0; i < args.size(); ++i) {
            const std::string &arg = args[i];
            if (arg == "--help" || arg == "-h") {
                help_(help_out);
                return true;
            }
            Spec *spec = nullptr;
            for (Spec &s : specs_) {
                if (arg == s.name) {
                    spec = &s;
                    break;
                }
            }
            if (!spec)
                fail("unknown " + std::string(subcommand_) + " flag '" +
                     arg + "'");
            if (spec->seen)
                fail("flag " + arg + " given more than once");
            spec->seen = true;
            if (spec->takesValue) {
                if (i + 1 >= args.size())
                    fail("flag " + arg + " expects a value");
                try {
                    spec->apply(args[++i]);
                } catch (const BadNumber &e) {
                    fail("flag " + arg + ": " + e.what());
                } catch (const sim::FatalError &e) {
                    fail("flag " + arg + ": " + fatalMessage(e));
                }
            } else {
                spec->apply(std::string());
            }
        }
        return false;
    }

    const char *subcommand() const { return subcommand_; }

  private:
    struct Spec
    {
        std::string name;
        bool takesValue;
        std::function<void(const std::string &)> apply;
        bool seen = false;
    };

    void
    addSpec(const char *name, bool takes_value,
            std::function<void(const std::string &)> apply)
    {
        for (const Spec &s : specs_)
            if (s.name == name)
                throw std::logic_error(
                    std::string("FlagParser: flag '") + name +
                    "' registered twice on subcommand " + subcommand_);
        specs_.push_back({name, takes_value, std::move(apply), false});
    }

    const char *subcommand_;
    void (*help_)(std::ostream &);
    std::vector<Spec> specs_;
};

/** Parse a comma-separated list through @p parse; empty elements fail. */
template <typename T>
std::vector<T>
parseList(const FlagParser &p, const std::string &csv,
          T (*parse)(const std::string &))
{
    std::vector<T> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            p.fail("empty element in list '" + csv + "'");
        out.push_back(parse(item));
    }
    if (out.empty())
        p.fail("empty list argument");
    return out;
}

} // namespace sn40l::tools

#endif // SN40L_TOOLS_FLAG_PARSER_H
