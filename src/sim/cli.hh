/**
 * @file
 * Tiny command-line tokenizer shared by sgcn_sim, benches and
 * examples.
 *
 * Supports "--name value", "--name=value", and boolean "--name".
 * Typed accessors return Expected: a value that does not parse is an
 * InvalidArgument error naming the flag, never an exit. Which flags a
 * binary takes, and their ranges, live in src/cli/flags.hh.
 */

#ifndef SGCN_SIM_CLI_HH
#define SGCN_SIM_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/error.hh"

namespace sgcn
{

/** @p text, whole, as an integer (0x/0 prefixes allowed). */
Expected<std::int64_t> parseInteger(const std::string &text);

/** @p text, whole, as a number. */
Expected<double> parseNumber(const std::string &text);

/** @p text as a boolean: empty (a bare flag), 1/true/yes, 0/false/no. */
Expected<bool> parseBoolean(const std::string &text);

/** Parsed command-line flags with typed accessors. */
class Cli
{
  public:
    Cli(int argc, char **argv);

    /** Basename of argv[0], for diagnostics. */
    const std::string &program() const { return programName; }

    /** True if the flag was given (with or without a value). */
    bool has(const std::string &name) const;

    /** String value of a flag, or @p fallback. */
    std::string getString(const std::string &name,
                          const std::string &fallback) const;

    /** Numeric value of a flag, or @p fallback when absent. */
    Expected<double> getDouble(const std::string &name,
                               double fallback) const;

    /** Boolean value: bare flag or explicit true/false/1/0. */
    Expected<bool> getBool(const std::string &name, bool fallback) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positionalArgs;
    }

    /** Flags that were given but are not in @p known, in sorted
     *  order. */
    std::vector<std::string>
    unknownFlags(const std::vector<std::string> &known) const;

  private:
    std::string programName;
    std::map<std::string, std::string> flags;
    std::vector<std::string> positionalArgs;
};

} // namespace sgcn

#endif // SGCN_SIM_CLI_HH
