/**
 * @file
 * The multi-chip run path. Every run is a partition, so the
 * load-bearing contract is that a one-chip partition adds nothing:
 * runNetwork at chips=1 must reproduce, bit for bit, the layers built
 * by makeInputLayer/makeIntermediateLayer and run directly on
 * LayerEngine, for every personality, dataset fixture and execution
 * mode, and report no shard statistics. On top of that the sharded
 * path itself must be deterministic under the jobs>1 chip fan-out
 * (this binary carries the "thread" ctest label and runs under the
 * ThreadSanitizer CI job), and the shard statistics must be
 * internally consistent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "accel/layer_engine.hh"
#include "accel/personalities.hh"
#include "accel/runner.hh"
#include "accel/workload.hh"
#include "fixtures.hh"
#include "gcn/sparsity_model.hh"
#include "graph/preprocess_cache.hh"

namespace sgcn
{
namespace
{

using testfx::expectLayerIdentical;
using testfx::expectRunIdentical;

struct MultiChip : ::testing::Test
{
    NetworkSpec net;
    RunOptions opts;

    void
    SetUp() override
    {
        opts.sampledIntermediateLayers = 2;
    }
};

/** A one-chip run reports no sharding: every field at its default. */
void
expectShardDefaults(const ShardStats &shard)
{
    const ShardStats defaults;
    EXPECT_EQ(shard.enabled, defaults.enabled);
    EXPECT_EQ(shard.chips, defaults.chips);
    EXPECT_EQ(shard.partitionPolicy, defaults.partitionPolicy);
    EXPECT_EQ(shard.linkName, defaults.linkName);
    EXPECT_EQ(shard.haloVertices, defaults.haloVertices);
    EXPECT_EQ(shard.exchangeBytes, defaults.exchangeBytes);
    EXPECT_EQ(shard.exchangeCycles, defaults.exchangeCycles);
    EXPECT_EQ(shard.linkBusyCycles, defaults.linkBusyCycles);
    EXPECT_EQ(shard.linkBusyFraction, defaults.linkBusyFraction);
    EXPECT_EQ(shard.chipCycles, defaults.chipCycles);
    EXPECT_EQ(shard.chipIds, defaults.chipIds);
    EXPECT_EQ(shard.bottleneckChipCycles, defaults.bottleneckChipCycles);
}

/**
 * @p run, runNetwork's result at chips=1, against its layers built
 * and run below it: on the I-GCN islandized graph when the
 * personality reorders, and under the dram-retry config a one-chip
 * fault plan derives (chip 0's seed).
 */
void
expectOneChipMatchesLayerRuns(const RunResult &run,
                              const AccelConfig &config,
                              const Dataset &dataset,
                              const NetworkSpec &net,
                              const RunOptions &opts)
{
    SCOPED_TRACE(config.name + " on " + dataset.spec.abbrev);
    AccelConfig cfg = config;
    if (opts.faults.active()) {
        cfg.dram.transientRetryProb = opts.faults.dramRetryProb();
        cfg.dram.retrySeed =
            FaultInjector::deriveSeed(opts.faults.seed, 0);
    }
    std::shared_ptr<const CsrGraph> reordered;
    const CsrGraph *graph = &dataset.graph;
    if (config.islandReorder) {
        reordered = PreprocessCache::instance().islandized(
            dataset.graph);
        graph = reordered.get();
    }

    const LayerContext input = makeInputLayer(dataset, *graph, cfg, net);
    expectLayerIdentical(LayerEngine(cfg, input).run(opts.mode),
                         run.inputLayer);
    const std::vector<unsigned> indices = sampleLayerIndices(
        net.layers - 1, opts.sampledIntermediateLayers);
    ASSERT_EQ(run.sampledLayers.size(), indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const LayerContext layer = makeIntermediateLayer(
            dataset, *graph, cfg, net, indices[i] + 1);
        expectLayerIdentical(LayerEngine(cfg, layer).run(opts.mode),
                             run.sampledLayers[i]);
    }
    expectShardDefaults(run.shard);
}

TEST_F(MultiChip, ChipsOneIsBitIdenticalToDirectLayerRuns)
{
    for (const char *abbrev : {"CR", "CS"}) {
        const Dataset dataset = testfx::datasetFixture(abbrev);
        for (ExecutionMode mode :
             {ExecutionMode::Fast, ExecutionMode::Timing}) {
            RunOptions one_chip = opts;
            one_chip.mode = mode;
            one_chip.chips = 1;
            for (const AccelConfig &config : allPersonalities()) {
                expectOneChipMatchesLayerRuns(
                    runNetwork(config, dataset, net, one_chip), config,
                    dataset, net, one_chip);
            }
        }
    }
}

TEST_F(MultiChip, ChipsOneDramRetryPlanMatchesDirectLayerRuns)
{
    const Dataset cora = testfx::cora();
    RunOptions faulted = opts;
    faulted.mode = ExecutionMode::Timing;
    faulted.faults = FaultPlan::parse("dram-retry:0.05").orFatal();
    for (const AccelConfig &config : allPersonalities()) {
        const RunResult run = runNetwork(config, cora, net, faulted);
        // The plan must actually inject, or the seed goes unchecked.
        EXPECT_GT(run.total.dramRetries, 0u) << config.name;
        expectOneChipMatchesLayerRuns(run, config, cora, net, faulted);
    }
}

/** Network totals of one chips=1 run on the Cora fixture. */
struct OneChipGolden
{
    const char *accel;
    ExecutionMode mode;
    Cycle cycles;
    std::uint64_t macs;
    std::uint64_t dramLines;
    double bwUtil;
    double inputBwUtil;
};

/**
 * Captured from the two-body runner, whose separate chips=1 body
 * built the layers without a partition, under glibc's libm. Unlike
 * the direct layer runs above, these numbers share no code with the
 * layer builders, so a drift in how a one-chip layer is built (its
 * expected densities, mask seeds or input format) cannot hide here.
 */
constexpr OneChipGolden kOneChipGoldens[] = {
    {"GCNAX", ExecutionMode::Fast, 537056, 2473359872, 3604442, 1.0,
     1.0},
    {"HyGCN", ExecutionMode::Fast, 537686, 2473359872, 3620542, 1.0,
     1.0},
    {"AWB-GCN", ExecutionMode::Fast, 645349, 821544192, 3089854, 1.0,
     1.0},
    {"EnGN", ExecutionMode::Fast, 533272, 2473359872, 3564542, 1.0,
     1.0},
    {"I-GCN", ExecutionMode::Fast, 539654, 2473359872, 3506386, 1.0,
     1.0},
    {"SGCN", ExecutionMode::Fast, 426572, 2336022886, 1898937, 1.0,
     0.9635336468433976},
    {"GCNAX", ExecutionMode::Timing, 2063773, 2473359872, 3417946,
     0.41404093376548678, 0.53162320859872614},
    {"HyGCN", ExecutionMode::Timing, 2062802, 2473359872, 3422640,
     0.41480471707900224, 0.53204436365701946},
    {"AWB-GCN", ExecutionMode::Timing, 680959, 821544192, 3089854,
     1.0, 1.0},
    {"EnGN", ExecutionMode::Timing, 2060971, 2473359872, 3421454,
     0.41502937207753043, 0.54192485456427608},
    {"I-GCN", ExecutionMode::Timing, 1846612, 2473359872, 3301764,
     0.44700294376945454, 0.58068539810979802},
    {"SGCN", ExecutionMode::Timing, 1117718, 2336022886, 1896516,
     0.42419375906981904, 0.54087605248638659},
};

TEST_F(MultiChip, ChipsOneMatchesTheTwoBodyRunnerGoldens)
{
    const Dataset cora = testfx::cora();
    for (const OneChipGolden &golden : kOneChipGoldens) {
        SCOPED_TRACE(std::string(golden.accel) +
                     (golden.mode == ExecutionMode::Fast ? " fast"
                                                         : " timing"));
        RunOptions one_chip = opts;
        one_chip.mode = golden.mode;
        one_chip.chips = 1;
        const RunResult run = runNetwork(
            personalityByName(golden.accel), cora, net, one_chip);
        EXPECT_EQ(run.total.cycles, golden.cycles);
        EXPECT_EQ(run.total.macs, golden.macs);
        EXPECT_EQ(run.total.traffic.totalLines(), golden.dramLines);
        EXPECT_EQ(run.total.bwUtil, golden.bwUtil);
        EXPECT_EQ(run.inputLayer.bwUtil, golden.inputBwUtil);
    }
}

TEST_F(MultiChip, ShardedChipFanOutIsDeterministic)
{
    const Dataset cora = testfx::cora();
    for (ExecutionMode mode :
         {ExecutionMode::Fast, ExecutionMode::Timing}) {
        for (const AccelConfig &config : allPersonalities()) {
            RunOptions serial = opts;
            serial.mode = mode;
            serial.chips = 4;
            serial.jobs = 1;
            RunOptions fanned = serial;
            fanned.jobs = 8;
            const RunResult a = runNetwork(config, cora, net, serial);
            const RunResult b = runNetwork(config, cora, net, fanned);
            expectRunIdentical(a, b);
            ASSERT_EQ(a.shard.chipCycles.size(),
                      b.shard.chipCycles.size());
            for (std::size_t c = 0; c < a.shard.chipCycles.size();
                 ++c) {
                EXPECT_EQ(a.shard.chipCycles[c],
                          b.shard.chipCycles[c]);
            }
            EXPECT_EQ(a.shard.exchangeBytes, b.shard.exchangeBytes);
            EXPECT_EQ(a.shard.exchangeCycles, b.shard.exchangeCycles);
        }
    }
}

TEST_F(MultiChip, ShardStatsAreInternallyConsistent)
{
    const Dataset cora = testfx::cora();
    RunOptions sharded = opts;
    sharded.chips = 4;
    sharded.jobs = 4;
    const RunResult run = runNetwork(makeSgcn(), cora, net, sharded);

    EXPECT_TRUE(run.shard.enabled);
    EXPECT_EQ(run.shard.chips, 4u);
    EXPECT_EQ(run.shard.partitionPolicy, "edge-balanced");
    EXPECT_EQ(run.shard.linkName, "PCIe4");
    ASSERT_EQ(run.shard.chipCycles.size(), 4u);
    EXPECT_GT(run.shard.haloVertices, 0u);
    EXPECT_GT(run.shard.exchangeBytes, 0u);
    EXPECT_GT(run.shard.exchangeCycles, 0u);
    EXPECT_GE(run.shard.exchangeCycles, run.shard.linkBusyCycles);
    EXPECT_GE(run.shard.linkBusyFraction, 0.0);
    EXPECT_LE(run.shard.linkBusyFraction, 1.0);
    EXPECT_EQ(run.shard.bottleneckChipCycles,
              *std::max_element(run.shard.chipCycles.begin(),
                                run.shard.chipCycles.end()));
    // The composed total covers the exchange plus the bottleneck
    // chips, so no chip's extrapolated cycles can exceed it.
    for (Cycle chip_cycles : run.shard.chipCycles)
        EXPECT_LE(chip_cycles, run.total.cycles);
}

TEST_F(MultiChip, NocLinkOutrunsPcieOnTheSamePartition)
{
    const Dataset cora = testfx::cora();
    RunOptions pcie = opts;
    pcie.chips = 4;
    RunOptions noc = pcie;
    noc.link = LinkConfig::noc();
    const RunResult a = runNetwork(makeSgcn(), cora, net, pcie);
    const RunResult b = runNetwork(makeSgcn(), cora, net, noc);
    // Same partition, same bytes; the wider, shorter-hop link
    // must spend strictly fewer cycles moving them.
    EXPECT_EQ(a.shard.exchangeBytes, b.shard.exchangeBytes);
    EXPECT_LT(b.shard.exchangeCycles, a.shard.exchangeCycles);
    EXPECT_LE(b.total.cycles, a.total.cycles);
}

TEST_F(MultiChip, ShardedPipelinedTotalsStayBounded)
{
    const Dataset cora = testfx::cora();
    RunOptions serial = opts;
    serial.chips = 4;
    RunOptions pipelined = serial;
    pipelined.tileOverlap = true;
    const RunResult base = runNetwork(makeSgcn(), cora, net, serial);
    const RunResult run =
        runNetwork(makeSgcn(), cora, net, pipelined);
    EXPECT_TRUE(run.pipeline.enabled);
    EXPECT_TRUE(run.shard.enabled);
    EXPECT_EQ(run.pipeline.serialCycles, base.total.cycles);
    EXPECT_LE(run.pipeline.pipelinedCycles,
              run.pipeline.serialCycles);
    EXPECT_LE(run.pipeline.perTileCycles,
              run.pipeline.perLayerCycles);
    // Work counts never change with pipelining, sharded or not.
    testfx::expectCountsIdentical(base.total, run.total);
}

} // namespace
} // namespace sgcn
