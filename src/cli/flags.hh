/**
 * @file
 * The one parser from command-line flags to simulation options,
 * shared by sgcn_sim, the bench harnesses and the examples.
 *
 * kFlags (flags.cc) is the table of shared flags: each flag's group,
 * minimum, and the option field it reads, whose type is the flag's.
 * A flag outside the binary's groups and extras is a Usage error
 * (exit 2); a value that does not read, is below its minimum or names
 * nothing known is an InvalidArgument naming the flag (exit 1).
 */

#ifndef SGCN_CLI_FLAGS_HH
#define SGCN_CLI_FLAGS_HH

#include <string>
#include <vector>

#include "accel/runner.hh"
#include "serve/serve.hh"
#include "sim/cli.hh"

namespace sgcn
{

/** Groups of shared flags (bit mask). */
enum FlagGroup : unsigned
{
    /** RunOptions and NetworkSpec: --mode, --sampled, --chips, ... */
    kRunFlags = 1u << 0,
    /** --scale, else the SGCN_BENCH_SCALE environment variable. */
    kScaleFlag = 1u << 1,
    /** --datasets CR,CS,... (the same list as --dataset). */
    kDatasetFlags = 1u << 2,
    /** ServeOptions: --rate, --requests, --batch-max, ... */
    kServeFlags = 1u << 3,
};

/** Everything the shared flags set. */
struct BenchOptions
{
    RunOptions run;
    NetworkSpec net;
    ServeOptions serve;
    double scale = 1.0;
    std::vector<DatasetSpec> datasets;
};

/** The flags one binary takes. */
struct FlagRequest
{
    /** FlagGroup bits. */
    unsigned groups = 0;
    /** BenchOptions::datasets when no dataset flag is given. */
    std::vector<DatasetSpec> datasets = {};
    /** Flags the binary reads itself, e.g. --pipeline-compare. */
    std::vector<std::string> extras = {};
    /** The binary runs one dataset, so a list is a bad value. */
    bool oneDataset = false;
};

/** @p cli's flags as options: the structs' defaults, except that jobs
 *  defaults to every hardware thread and datasets to @p request's. */
Expected<BenchOptions> parseFlags(const Cli &cli,
                                  const FlagRequest &request);

/** parseFlags at a binary's boundary: on a Usage error print it and
 *  the flags taken by "@p usage" (default: the program) and exit 2;
 *  on any other error print it and exit 1. */
BenchOptions parseFlagsOrExit(const Cli &cli, const FlagRequest &request,
                              const std::string &usage = "");

/** A binary's own count flag: @p fallback when absent, else an
 *  integer of at least @p min, errors naming the flag. */
Expected<unsigned> countFlag(const Cli &cli, const std::string &name,
                             unsigned fallback, unsigned min);

} // namespace sgcn

#endif // SGCN_CLI_FLAGS_HH
