/**
 * @file
 * The shared flag parser (src/cli/flags.hh) that sgcn_sim, the bench
 * harnesses and the examples read their flags through: argv arrays
 * in, options or typed errors out.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cli/flags.hh"
#include "sim/thread_pool.hh"

namespace sgcn
{
namespace
{

constexpr unsigned kAllGroups =
    kRunFlags | kScaleFlag | kDatasetFlags | kServeFlags;

/** parseFlags over "prog" followed by @p args. */
Expected<BenchOptions>
parse(std::vector<std::string> args,
      const FlagRequest &request = {.groups = kAllGroups})
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return parseFlags(Cli(static_cast<int>(argv.size()), argv.data()),
                      request);
}

/** The error @p args produce; fails the test if they parse. */
SgcnError
failure(std::vector<std::string> args,
        const FlagRequest &request = {.groups = kAllGroups})
{
    Expected<BenchOptions> parsed = parse(std::move(args), request);
    EXPECT_FALSE(parsed.ok());
    return parsed.ok() ? SgcnError{} : parsed.error();
}

class Flags : public ::testing::Test
{
  protected:
    void SetUp() override { unsetenv("SGCN_BENCH_SCALE"); }
    void TearDown() override { unsetenv("SGCN_BENCH_SCALE"); }
};

TEST_F(Flags, NoFlagsGiveTheStructDefaults)
{
    const DatasetSpec cr = tryDatasetByAbbrev("CR").value();
    Expected<BenchOptions> parsed =
        parse({}, {.groups = kAllGroups, .datasets = {cr}});
    ASSERT_TRUE(parsed.ok());
    const BenchOptions &o = parsed.value();

    const RunOptions run;
    EXPECT_EQ(o.run.mode, run.mode);
    EXPECT_EQ(o.run.sampledIntermediateLayers,
              run.sampledIntermediateLayers);
    EXPECT_EQ(o.run.includeInputLayer, run.includeInputLayer);
    EXPECT_EQ(o.run.interLayerOverlap, run.interLayerOverlap);
    EXPECT_EQ(o.run.tileOverlap, run.tileOverlap);
    EXPECT_EQ(o.run.jobs, ThreadPool::hardwareJobs());
    EXPECT_EQ(o.run.chips, run.chips);
    EXPECT_EQ(o.run.partitionPolicy, run.partitionPolicy);
    EXPECT_STREQ(o.run.link.name, run.link.name);
    EXPECT_FALSE(o.run.faults.active());
    EXPECT_EQ(o.run.degradedMode, run.degradedMode);

    const NetworkSpec net;
    EXPECT_EQ(o.net.layers, net.layers);
    EXPECT_EQ(o.net.hidden, net.hidden);
    EXPECT_EQ(o.net.residual, net.residual);
    EXPECT_EQ(o.net.agg, net.agg);
    EXPECT_EQ(o.net.sageFanout, net.sageFanout);
    EXPECT_EQ(o.net.sageSeed, net.sageSeed);

    const ServeOptions serve;
    EXPECT_EQ(o.serve.offeredQps, serve.offeredQps);
    EXPECT_EQ(o.serve.poisson, serve.poisson);
    EXPECT_EQ(o.serve.requests, serve.requests);
    EXPECT_EQ(o.serve.maxBatch, serve.maxBatch);
    EXPECT_EQ(o.serve.maxLingerCycles, serve.maxLingerCycles);
    EXPECT_EQ(o.serve.sample.hops, serve.sample.hops);
    EXPECT_EQ(o.serve.sample.fanout, serve.sample.fanout);
    EXPECT_EQ(o.serve.sample.seed, serve.sample.seed);

    EXPECT_EQ(o.scale, 1.0);
    ASSERT_EQ(o.datasets.size(), 1u);
    EXPECT_STREQ(o.datasets[0].abbrev, "CR");
}

TEST_F(Flags, EveryFlagSetsItsField)
{
    Expected<BenchOptions> parsed = parse(
        {"--mode", "timing", "--sampled", "2", "--input-layer=false",
         "--jobs", "0", "--chips", "4", "--partition", "contiguous",
         "--link", "noc", "--faults", "dram-retry:0.5,seed:7",
         "--degraded-mode", "fail-fast", "--layers", "14", "--hidden",
         "128", "--residual=0", "--agg", "sage", "--scale", "0.5",
         "--rate", "500", "--requests", "0", "--batch-max", "3",
         "--linger", "0", "--arrival", "fixed", "--hops", "1",
         "--fanout", "4", "--serve-seed", "0x10"});
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const BenchOptions &o = parsed.value();
    EXPECT_EQ(o.run.mode, ExecutionMode::Timing);
    EXPECT_EQ(o.run.sampledIntermediateLayers, 2u);
    EXPECT_FALSE(o.run.includeInputLayer);
    EXPECT_EQ(o.run.jobs, 0u);
    EXPECT_EQ(o.run.chips, 4u);
    EXPECT_EQ(o.run.partitionPolicy, PartitionPolicy::Contiguous);
    EXPECT_STREQ(o.run.link.name, LinkConfig::noc().name);
    EXPECT_EQ(o.run.faults.seed, 7u);
    EXPECT_EQ(o.run.degradedMode, DegradedMode::FailFast);
    EXPECT_EQ(o.net.layers, 14u);
    EXPECT_EQ(o.net.hidden, 128u);
    EXPECT_FALSE(o.net.residual);
    EXPECT_EQ(o.net.agg, AggKind::Sage);
    EXPECT_EQ(o.scale, 0.5);
    EXPECT_EQ(o.serve.offeredQps, 500.0);
    EXPECT_EQ(o.serve.requests, 0u);
    EXPECT_EQ(o.serve.maxBatch, 3u);
    EXPECT_EQ(o.serve.maxLingerCycles, 0u);
    EXPECT_FALSE(o.serve.poisson);
    EXPECT_EQ(o.serve.sample.hops, 1u);
    EXPECT_EQ(o.serve.sample.fanout, 4u);
    EXPECT_EQ(o.serve.sample.seed, 16u);
}

TEST_F(Flags, PipelineFlagSelectsTheGating)
{
    struct Case
    {
        std::vector<std::string> args;
        bool layer;
        bool tile;
    };
    for (const Case &c : std::vector<Case>{
             {{"--pipeline"}, true, false},
             {{"--pipeline=layer"}, true, false},
             {{"--pipeline=on"}, true, false},
             {{"--pipeline=tile"}, true, true},
             {{"--pipeline=off"}, false, false},
             {{"--pipeline=0"}, false, false}}) {
        Expected<BenchOptions> parsed = parse(c.args);
        ASSERT_TRUE(parsed.ok()) << c.args[0];
        EXPECT_EQ(parsed.value().run.interLayerOverlap, c.layer)
            << c.args[0];
        EXPECT_EQ(parsed.value().run.tileOverlap, c.tile) << c.args[0];
    }
}

TEST_F(Flags, DatasetIsTheSameListAsDatasets)
{
    for (const char *list : {"PM", "CR,synth:2k:deg4"}) {
        Expected<BenchOptions> one = parse({"--dataset", list});
        Expected<BenchOptions> many = parse({"--datasets", list});
        ASSERT_TRUE(one.ok() && many.ok()) << list;
        ASSERT_EQ(one.value().datasets.size(),
                  many.value().datasets.size());
        for (std::size_t i = 0; i < one.value().datasets.size(); ++i) {
            EXPECT_STREQ(one.value().datasets[i].abbrev,
                         many.value().datasets[i].abbrev);
        }
    }
    EXPECT_EQ(parse({"--datasets", "CR,PM"}).value().datasets.size(), 2u);
}

TEST_F(Flags, BadValuesAreInvalidArgumentsNamingTheFlag)
{
    const std::vector<std::vector<std::string>> cases = {
        {"--mode", "timng"},     {"--chips", "-1"},
        {"--chips", "0"},        {"--sampled", "-2"},
        {"--sampled", "0"},      {"--layers", "1"},
        {"--hidden", "0"},       {"--scale", "0"},
        {"--scale", "banana"},   {"--rate", "-5"},
        {"--batch-max", "0"},    {"--jobs", "x"},
        {"--jobs"},              {"--chips", "4294967296"},
        {"--linger", "-1"},      {"--input-layer", "maybe"},
        {"--pipeline", "bogus"}, {"--partition", "bogus"},
        {"--link", "bogus"},     {"--faults", "bogus"},
        {"--agg", "bogus"},      {"--degraded-mode", "bogus"},
        {"--arrival", "bogus"},  {"--datasets", "ZZ"},
        {"--dataset", "synth:0"}};
    for (const auto &args : cases) {
        const SgcnError error = failure(args);
        EXPECT_EQ(error.code, ErrorCode::InvalidArgument) << args[0];
        EXPECT_NE(error.message.find(args[0]), std::string::npos)
            << error.message;
    }

    ASSERT_EQ(setenv("SGCN_BENCH_SCALE", "banana", 1), 0);
    const SgcnError env = failure({});
    EXPECT_EQ(env.code, ErrorCode::InvalidArgument);
    EXPECT_NE(env.message.find("--scale"), std::string::npos);
    EXPECT_NE(env.message.find("SGCN_BENCH_SCALE"), std::string::npos);
}

TEST_F(Flags, ScaleFallsBackToTheEnvironment)
{
    ASSERT_EQ(setenv("SGCN_BENCH_SCALE", "0.25", 1), 0);
    EXPECT_EQ(parse({}).value().scale, 0.25);
    EXPECT_EQ(parse({"--scale", "0.5"}).value().scale, 0.5);
    // Outside the scale group the variable is never read.
    ASSERT_EQ(setenv("SGCN_BENCH_SCALE", "banana", 1), 0);
    EXPECT_TRUE(parse({}, {.groups = kRunFlags}).ok());
}

TEST_F(Flags, UnknownFlagsAreUsageErrors)
{
    const SgcnError unknown = failure({"--bogus-flag", "3"});
    EXPECT_EQ(unknown.code, ErrorCode::Usage);
    EXPECT_NE(unknown.message.find("--bogus-flag"), std::string::npos);

    // A usage error outranks a bad value on the same command line.
    EXPECT_EQ(failure({"--mode", "timng", "--bogus-flag", "3"}).code,
              ErrorCode::Usage);

    // A flag outside the requested groups is unknown too.
    EXPECT_EQ(failure({"--datasets", "CR"},
                      {.groups = kRunFlags | kScaleFlag})
                  .code,
              ErrorCode::Usage);
    EXPECT_EQ(failure({"--rate", "2000"},
                      {.groups = kRunFlags | kScaleFlag | kDatasetFlags})
                  .code,
              ErrorCode::Usage);

    // A binary's own flags are known but left to the binary.
    EXPECT_TRUE(parse({"--pipeline-compare"},
                      {.groups = kRunFlags,
                       .extras = {"pipeline-compare"}})
                    .ok());
}

TEST_F(Flags, OneDatasetBinariesRejectAList)
{
    const FlagRequest one{.groups = kDatasetFlags, .oneDataset = true};
    EXPECT_TRUE(parse({"--dataset", "CR"}, one).ok());
    const SgcnError error = failure({"--datasets", "CR,PM"}, one);
    EXPECT_EQ(error.code, ErrorCode::InvalidArgument);
    EXPECT_NE(error.message.find("--datasets"), std::string::npos);
}

TEST_F(Flags, CountFlagReadsLikeTheTable)
{
    const char *argv[] = {"prog", "--engines", "0", "--width", "8"};
    const Cli cli(5, const_cast<char **>(argv));
    EXPECT_EQ(countFlag(cli, "absent", 7, 1).value(), 7u);
    EXPECT_EQ(countFlag(cli, "width", 7, 1).value(), 8u);
    Expected<unsigned> engines = countFlag(cli, "engines", 16, 1);
    ASSERT_FALSE(engines.ok());
    EXPECT_EQ(engines.error().code, ErrorCode::InvalidArgument);
    EXPECT_NE(engines.error().message.find("--engines"),
              std::string::npos);
}

} // namespace
} // namespace sgcn
