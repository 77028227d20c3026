#include "cli/flags.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <type_traits>

#include "sim/thread_pool.hh"

namespace sgcn
{

namespace
{

/**
 * One row of the flag table: the flag's name and group, the smallest
 * count it accepts, its value's form in the usage list (a choice's
 * choices), the setter reading its text into the options (errors
 * leave out the flag's name, which parseFlags adds), and the
 * environment variable read when the flag is absent.
 */
struct FlagDef
{
    const char *name;
    FlagGroup group;
    std::uint64_t min;
    const char *values;
    Status (*set)(BenchOptions &, const FlagDef &, const std::string &);
    const char *env = nullptr;
};

/** Store @p value in @p field, or pass its error on. */
template <typename T, typename U>
Status
assign(T &field, Expected<U> value)
{
    if (!value.ok())
        return value.error();
    field = std::move(value.value());
    return {};
}

/** @p text as a count of at least @p min that fits a T. */
template <typename T>
Expected<T>
readCount(const std::string &text, std::uint64_t min)
{
    Expected<std::int64_t> n = parseInteger(text);
    if (!n.ok())
        return n.error();
    const auto count = static_cast<std::uint64_t>(n.value());
    if (n.value() < 0 || count < min) {
        return makeError(ErrorCode::InvalidArgument, text,
                         " is below the minimum ", min);
    }
    if (count > std::numeric_limits<T>::max()) {
        return makeError(ErrorCode::InvalidArgument, text,
                         " is above the maximum ",
                         std::numeric_limits<T>::max());
    }
    return static_cast<T>(count);
}

/** The result at @p text's position among @p values ("a|b|c"). */
template <typename T>
Expected<T>
readChoice(const char *values, const std::string &text,
           std::initializer_list<T> results)
{
    std::stringstream choices(values);
    std::string choice;
    for (const T &result : results) {
        std::getline(choices, choice, '|');
        if (choice == text)
            return result;
    }
    return makeError(ErrorCode::InvalidArgument, "'", text,
                     "' is not one of ", values);
}

/** Read the field at member path @p Path by its type: a boolean, a
 *  positive number, or a count of at least FlagDef::min. */
template <auto... Path>
Status
store(BenchOptions &o, const FlagDef &def, const std::string &text)
{
    auto &field = (o .* ... .* Path);
    using T = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_same_v<T, bool>) {
        return assign(field, parseBoolean(text));
    } else if constexpr (std::is_floating_point_v<T>) {
        Expected<double> x = parseNumber(text);
        if (x.ok() && !(x.value() > 0.0 && std::isfinite(x.value()))) {
            return makeError(ErrorCode::InvalidArgument, text,
                             " is not a positive number");
        }
        return assign(field, x);
    } else {
        return assign(field, readCount<T>(text, def.min));
    }
}

/** --pipeline[=layer|tile|off]: bare, layer or truthy selects
 *  per-layer gating, tile per-tile gating, off or falsy neither. */
Status
setPipeline(BenchOptions &o, const FlagDef &, const std::string &text)
{
    Expected<bool> on = parseBoolean(text);
    if (text == "layer" || text == "tile" || text == "on" || text == "off")
        on = text != "off";
    if (!on.ok()) {
        return makeError(ErrorCode::InvalidArgument, "'", text,
                         "' is not one of layer|tile|off");
    }
    o.run.interLayerOverlap = on.value();
    o.run.tileOverlap = text == "tile";
    return {};
}

/** --datasets/--dataset: comma-separated Table II abbreviations or
 *  synth:<N>[:deg<D>] specs. */
Status
setDatasets(BenchOptions &o, const FlagDef &, const std::string &text)
{
    o.datasets.clear();
    std::stringstream stream(text);
    std::string abbrev;
    while (std::getline(stream, abbrev, ',')) {
        Expected<DatasetSpec> spec = tryDatasetByAbbrev(abbrev);
        if (!spec.ok())
            return spec.error();
        o.datasets.push_back(spec.value());
    }
    if (o.datasets.empty())
        return makeError(ErrorCode::InvalidArgument, "names no dataset");
    return {};
}

using Run = RunOptions;
using Net = NetworkSpec;
using Serve = ServeOptions;

// Names, defaults and meanings are sgcn_sim's (README "Running").
const FlagDef kFlags[] = {
    {"mode", kRunFlags, 0, "fast|timing",
     [](BenchOptions &o, const FlagDef &def, const std::string &text) {
         return assign(o.run.mode,
                       readChoice(def.values, text,
                                  {ExecutionMode::Fast,
                                   ExecutionMode::Timing}));
     }},
    {"sampled", kRunFlags, 1, "N",
     store<&BenchOptions::run, &Run::sampledIntermediateLayers>},
    {"input-layer", kRunFlags, 0, "[BOOL]",
     store<&BenchOptions::run, &Run::includeInputLayer>},
    {"pipeline", kRunFlags, 0, "[layer|tile|off]", setPipeline},
    {"jobs", kRunFlags, 0, "N", store<&BenchOptions::run, &Run::jobs>},
    {"chips", kRunFlags, 1, "N", store<&BenchOptions::run, &Run::chips>},
    {"partition", kRunFlags, 0, "contiguous|edge-balanced",
     [](BenchOptions &o, const FlagDef &, const std::string &text) {
         return assign(o.run.partitionPolicy,
                       tryPartitionPolicyByName(text));
     }},
    {"link", kRunFlags, 0, "pcie4|noc",
     [](BenchOptions &o, const FlagDef &, const std::string &text) {
         return assign(o.run.link, tryLinkByName(text));
     }},
    {"faults", kRunFlags, 0, "SPEC",
     [](BenchOptions &o, const FlagDef &, const std::string &text) {
         return assign(o.run.faults, FaultPlan::parse(text));
     }},
    {"degraded-mode", kRunFlags, 0, "repartition|fail-fast",
     [](BenchOptions &o, const FlagDef &, const std::string &text) {
         return assign(o.run.degradedMode, parseDegradedMode(text));
     }},
    {"layers", kRunFlags, 2, "N", store<&BenchOptions::net, &Net::layers>},
    {"hidden", kRunFlags, 1, "N", store<&BenchOptions::net, &Net::hidden>},
    {"residual", kRunFlags, 0, "[BOOL]",
     store<&BenchOptions::net, &Net::residual>},
    {"agg", kRunFlags, 0, "gcn|gin|sage",
     [](BenchOptions &o, const FlagDef &def, const std::string &text) {
         return assign(o.net.agg,
                       readChoice(def.values, text,
                                  {AggKind::Gcn, AggKind::Gin,
                                   AggKind::Sage}));
     }},

    {"scale", kScaleFlag, 0, "X", store<&BenchOptions::scale>,
     "SGCN_BENCH_SCALE"},

    {"dataset", kDatasetFlags, 0, "CR,...", setDatasets},
    {"datasets", kDatasetFlags, 0, "CR,...", setDatasets},

    {"rate", kServeFlags, 0, "QPS",
     store<&BenchOptions::serve, &Serve::offeredQps>},
    {"requests", kServeFlags, 0, "N",
     store<&BenchOptions::serve, &Serve::requests>},
    {"batch-max", kServeFlags, 1, "N",
     store<&BenchOptions::serve, &Serve::maxBatch>},
    {"linger", kServeFlags, 0, "CYCLES",
     store<&BenchOptions::serve, &Serve::maxLingerCycles>},
    {"arrival", kServeFlags, 0, "poisson|fixed",
     [](BenchOptions &o, const FlagDef &def, const std::string &text) {
         return assign(o.serve.poisson,
                       readChoice(def.values, text, {true, false}));
     }},
    {"hops", kServeFlags, 0, "N",
     store<&BenchOptions::serve, &Serve::sample, &EgoSampleParams::hops>},
    {"fanout", kServeFlags, 0, "N",
     store<&BenchOptions::serve, &Serve::sample,
           &EgoSampleParams::fanout>},
    {"serve-seed", kServeFlags, 0, "N",
     store<&BenchOptions::serve, &Serve::sample, &EgoSampleParams::seed>},
};

} // namespace

Expected<BenchOptions>
parseFlags(const Cli &cli, const FlagRequest &request)
{
    std::vector<std::string> known = request.extras;
    for (const FlagDef &def : kFlags) {
        if (request.groups & def.group)
            known.push_back(def.name);
    }
    const std::vector<std::string> unknown = cli.unknownFlags(known);
    if (!unknown.empty())
        return makeError(ErrorCode::Usage, "unknown flag --", unknown[0]);

    BenchOptions options;
    options.run.jobs = ThreadPool::hardwareJobs();
    options.datasets = request.datasets;
    for (const FlagDef &def : kFlags) {
        const char *env = def.env ? std::getenv(def.env) : nullptr;
        if (!(request.groups & def.group) || !(cli.has(def.name) || env))
            continue;
        std::string what = std::string("--") + def.name;
        if (!cli.has(def.name))
            what += std::string(" (from ") + def.env + ")";
        const Status set =
            def.set(options, def, cli.getString(def.name, env ? env : ""));
        if (!set.ok()) {
            return makeError(ErrorCode::InvalidArgument, what, ": ",
                             set.error().message);
        }
    }
    if (request.oneDataset && options.datasets.size() > 1) {
        return makeError(ErrorCode::InvalidArgument,
                         "--datasets: this command runs one dataset");
    }
    return options;
}

BenchOptions
parseFlagsOrExit(const Cli &cli, const FlagRequest &request,
                 const std::string &usage)
{
    Expected<BenchOptions> options = parseFlags(cli, request);
    if (options.ok())
        return std::move(options.value());
    std::fprintf(stderr, "%s: %s\n", cli.program().c_str(),
                 options.error().message.c_str());
    if (options.error().code != ErrorCode::Usage)
        std::exit(1);
    std::fprintf(stderr, "usage: %s [flags], taking\n",
                 usage.empty() ? cli.program().c_str() : usage.c_str());
    for (const FlagDef &def : kFlags) {
        if (request.groups & def.group)
            std::fprintf(stderr, "  --%s %s\n", def.name, def.values);
    }
    for (const std::string &extra : request.extras)
        std::fprintf(stderr, "  --%s\n", extra.c_str());
    std::exit(2);
}

Expected<unsigned>
countFlag(const Cli &cli, const std::string &name, unsigned fallback,
          unsigned min)
{
    if (!cli.has(name))
        return fallback;
    Expected<unsigned> count =
        readCount<unsigned>(cli.getString(name, ""), min);
    if (!count.ok()) {
        return makeError(ErrorCode::InvalidArgument, "--", name, ": ",
                         count.error().message);
    }
    return count;
}

} // namespace sgcn
