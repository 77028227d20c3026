#include "sim/cli.hh"

#include <cerrno>
#include <cstdlib>

namespace sgcn
{

Expected<std::int64_t>
parseInteger(const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const std::int64_t value = std::strtoll(text.c_str(), &end, 0);
    if (text.empty() || *end != '\0' || errno == ERANGE) {
        return makeError(ErrorCode::InvalidArgument, "'", text,
                         "' is not an integer");
    }
    return value;
}

Expected<double>
parseNumber(const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0') {
        return makeError(ErrorCode::InvalidArgument, "'", text,
                         "' is not a number");
    }
    return value;
}

Expected<bool>
parseBoolean(const std::string &text)
{
    if (text.empty() || text == "1" || text == "true" || text == "yes")
        return true;
    if (text == "0" || text == "false" || text == "no")
        return false;
    return makeError(ErrorCode::InvalidArgument, "'", text,
                     "' is not true|false");
}

namespace
{

/** @p value, or its error led by the flag's name. */
template <typename T>
Expected<T>
named(const std::string &name, Expected<T> value)
{
    if (value.ok())
        return value;
    return makeError(ErrorCode::InvalidArgument, "--", name, ": ",
                     value.error().message);
}

} // namespace

Cli::Cli(int argc, char **argv)
{
    if (argc > 0) {
        programName = argv[0];
        programName = programName.substr(programName.rfind('/') + 1);
    }
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positionalArgs.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            flags[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)
                   != 0) {
            flags[arg] = argv[++i];
        } else {
            flags[arg] = "";
        }
    }
}

bool
Cli::has(const std::string &name) const
{
    return flags.count(name) > 0;
}

std::string
Cli::getString(const std::string &name, const std::string &fallback) const
{
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
}

Expected<double>
Cli::getDouble(const std::string &name, double fallback) const
{
    auto it = flags.find(name);
    if (it == flags.end())
        return fallback;
    return named(name, parseNumber(it->second));
}

Expected<bool>
Cli::getBool(const std::string &name, bool fallback) const
{
    auto it = flags.find(name);
    if (it == flags.end())
        return fallback;
    return named(name, parseBoolean(it->second));
}

std::vector<std::string>
Cli::unknownFlags(const std::vector<std::string> &known) const
{
    std::vector<std::string> unknown;
    for (const auto &[name, value] : flags) {
        bool found = false;
        for (const std::string &k : known)
            found = found || k == name;
        if (!found)
            unknown.push_back(name);
    }
    return unknown;
}

} // namespace sgcn
