/**
 * @file
 * The inter-layer pipeline: with RunOptions::interLayerOverlap off,
 * runNetwork must reproduce the serial isolated-sum totals
 * bit-identically (pinned against pre-change captures below); with
 * per-layer gating on, cycles must drop strictly below the serial
 * sum while staying above the longest single layer; per-tile gating
 * must never exceed the per-layer total; and the work counts
 * (traffic, MACs, cache accesses) must not move across any of the
 * three modes. Layer schedules themselves must be well-ordered for
 * every builtin dataflow in both execution modes, and the overlapped
 * paths must be safe inside the jobs>1 fan-out (this binary carries
 * the "thread" ctest label and runs under the ThreadSanitizer CI
 * job).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "accel/layer_engine.hh"
#include "accel/personalities.hh"
#include "accel/pipeline/layer_pipeline.hh"
#include "accel/runner.hh"
#include "fixtures.hh"
#include "sim/thread_pool.hh"

namespace sgcn
{
namespace
{

using testfx::expectCountsIdentical;

/** The serial extrapolation recomputed from the per-layer results,
 *  mirroring runNetwork's depth extrapolation (runner.hh). */
Cycle
serialTotalCycles(const RunResult &run, unsigned arch_intermediate)
{
    Cycle sampled_sum = 0;
    for (const auto &layer : run.sampledLayers)
        sampled_sum += layer.cycles;
    const auto extrapolated = static_cast<Cycle>(
        static_cast<double>(sampled_sum) *
        (static_cast<double>(arch_intermediate) /
         static_cast<double>(run.sampledLayers.size())));
    return run.inputLayer.cycles + extrapolated;
}

/** All six personalities plus the streaming comb-first variant (the
 *  consumer the per-tile gate refines finest). */
std::vector<AccelConfig>
gatingSweepConfigs()
{
    auto configs = allPersonalities();
    configs.push_back(testfx::combFirstPersonality());
    configs.back().name = "SGCN-CombFirst";
    return configs;
}

struct Pipeline : ::testing::Test
{
    NetworkSpec net;
    RunOptions serial;
    RunOptions overlapped;
    RunOptions tiled;

    void
    SetUp() override
    {
        serial.sampledIntermediateLayers = 2;
        overlapped = serial;
        overlapped.interLayerOverlap = true;
        tiled = overlapped;
        tiled.tileOverlap = true;
    }
};

TEST_F(Pipeline, OverlapOffReproducesSerialTotals)
{
    const Dataset cora = testfx::cora();
    for (const AccelConfig &config : allPersonalities()) {
        const RunResult run = runNetwork(config, cora, net, serial);
        EXPECT_FALSE(run.pipeline.enabled);
        EXPECT_EQ(run.total.cycles,
                  serialTotalCycles(run, net.layers - 1))
            << config.name;
        // The default options must still mean "serial".
        const RunResult defaults = runNetwork(config, cora, net,
                                              RunOptions{
                                                  .mode = serial.mode,
                                                  .sampledIntermediateLayers =
                                                      serial.sampledIntermediateLayers,
                                              });
        EXPECT_EQ(run.total.cycles, defaults.total.cycles)
            << config.name;
        expectCountsIdentical(run.total, defaults.total);
    }
}

/**
 * Off-mode goldens captured immediately before the per-tile gating
 * change landed (PR 4 state: fast mode, scale 0.08, sampled 2,
 * default 28-layer residual net). The serial path must not move:
 * any drift here is an unintended model change, not a pipeline
 * feature. Counts are checked with the parity-test band (0.2%
 * relative, two-count floor) so alternative libm roundings cannot
 * flake the suite; on the capture platform the match is exact.
 */
struct PreChangeCapture
{
    const char *dataset;
    const char *accel;
    std::uint64_t cycles;
    std::uint64_t totalLines;
    std::uint64_t macs;
};

constexpr PreChangeCapture kPreChangeCaptures[] = {
    {"CR", "GCNAX", 537056ull, 3604442ull, 2473359872ull},
    {"CR", "HyGCN", 537686ull, 3620542ull, 2473359872ull},
    {"CR", "AWB-GCN", 645349ull, 3089854ull, 821544192ull},
    {"CR", "EnGN", 533272ull, 3564542ull, 2473359872ull},
    {"CR", "I-GCN", 539654ull, 3506386ull, 2473359872ull},
    {"CR", "SGCN", 426572ull, 1898937ull, 2336022886ull},
    {"CS", "GCNAX", 524946ull, 3294398ull, 2462650880ull},
    {"CS", "HyGCN", 525681ull, 3313158ull, 2462650880ull},
    {"CS", "AWB-GCN", 643145ull, 3084870ull, 742254080ull},
    {"CS", "EnGN", 521166ull, 3254918ull, 2462650880ull},
    {"CS", "I-GCN", 522945ull, 3183238ull, 2462650880ull},
    {"CS", "SGCN", 414473ull, 1863178ull, 2330495775ull},
};

void
expectInCaptureBand(std::uint64_t actual, std::uint64_t golden,
                    const std::string &what)
{
    const double tolerance =
        std::max(2.0, static_cast<double>(golden) * 0.002);
    EXPECT_NEAR(static_cast<double>(actual),
                static_cast<double>(golden), tolerance)
        << what;
}

TEST_F(Pipeline, OffModeMatchesPreChangeCaptures)
{
    for (const char *abbrev : {"CR", "CS"}) {
        const Dataset dataset = testfx::datasetFixture(abbrev);
        const auto runs =
            runAll(allPersonalities(), dataset, net, serial);
        for (const RunResult &run : runs) {
            bool found = false;
            for (const PreChangeCapture &capture :
                 kPreChangeCaptures) {
                if (run.accelName != capture.accel ||
                    std::string(abbrev) != capture.dataset) {
                    continue;
                }
                found = true;
                const std::string what =
                    run.accelName + " on " + abbrev;
                expectInCaptureBand(run.total.cycles, capture.cycles,
                                    what + " cycles");
                expectInCaptureBand(run.total.traffic.totalLines(),
                                    capture.totalLines,
                                    what + " traffic");
                expectInCaptureBand(run.total.macs, capture.macs,
                                    what + " macs");
            }
            EXPECT_TRUE(found)
                << "no pre-change capture for " << run.accelName;
        }
    }
}

TEST_F(Pipeline, OverlapBoundsAndInvariantCounts)
{
    for (const char *abbrev : {"CR", "CS"}) {
        const Dataset dataset = testfx::datasetFixture(abbrev);
        for (const AccelConfig &config : allPersonalities()) {
            const RunResult off =
                runNetwork(config, dataset, net, serial);
            const RunResult on =
                runNetwork(config, dataset, net, overlapped);

            // Work is timeline-independent.
            expectCountsIdentical(off.total, on.total);
            EXPECT_EQ(off.total.aggCycles, on.total.aggCycles);
            EXPECT_EQ(off.total.combCycles, on.total.combCycles);

            // Cycles: strictly below the serial sum (the weight
            // prefetch of every layer hides behind its predecessor's
            // drain), at or above the longest single layer.
            EXPECT_LT(on.total.cycles, off.total.cycles)
                << config.name << " on " << abbrev;
            Cycle longest_layer = off.inputLayer.cycles;
            for (const auto &layer : off.sampledLayers)
                longest_layer = std::max(longest_layer, layer.cycles);
            EXPECT_GE(on.total.cycles, longest_layer)
                << config.name << " on " << abbrev;

            // The summary must agree with the totals.
            EXPECT_TRUE(on.pipeline.enabled);
            EXPECT_EQ(on.pipeline.gating, PipelineGating::PerLayer);
            EXPECT_EQ(on.pipeline.pipelinedCycles, on.total.cycles);
            EXPECT_EQ(on.pipeline.serialCycles, off.total.cycles);
            EXPECT_EQ(on.pipeline.overlapSavedCycles,
                      off.total.cycles - on.total.cycles);
            EXPECT_EQ(on.pipeline.perLayerCycles, on.total.cycles);
            EXPECT_GT(on.pipeline.steadyStateAdvance, 0u);
        }
    }
}

TEST_F(Pipeline, TileGatingBoundsAndInvariantCounts)
{
    // The differential bound chain, per personality and dataset:
    //   longest layer <= per-tile <= per-layer < serial
    // with bit-identical work counts across all three modes, and a
    // PipelineStats triple that is coherent between the per-layer
    // and per-tile runs of the same workload.
    for (const char *abbrev : {"CR", "CS"}) {
        const Dataset dataset = testfx::datasetFixture(abbrev);
        for (const AccelConfig &config : gatingSweepConfigs()) {
            const RunResult off =
                runNetwork(config, dataset, net, serial);
            const RunResult layer =
                runNetwork(config, dataset, net, overlapped);
            const RunResult tile =
                runNetwork(config, dataset, net, tiled);
            const std::string what =
                config.name + std::string(" on ") + abbrev;

            // Work counts are identical across all three modes.
            expectCountsIdentical(off.total, layer.total);
            expectCountsIdentical(off.total, tile.total);
            EXPECT_EQ(off.total.aggCycles, tile.total.aggCycles);
            EXPECT_EQ(off.total.combCycles, tile.total.combCycles);

            // The bound chain.
            EXPECT_LE(tile.total.cycles, layer.total.cycles) << what;
            EXPECT_LT(layer.total.cycles, off.total.cycles) << what;
            Cycle longest_layer = off.inputLayer.cycles;
            for (const auto &sampled : off.sampledLayers)
                longest_layer =
                    std::max(longest_layer, sampled.cycles);
            EXPECT_GE(tile.total.cycles, longest_layer) << what;

            // Stats coherence: both runs carry the same triple.
            EXPECT_TRUE(tile.pipeline.enabled);
            EXPECT_EQ(tile.pipeline.gating, PipelineGating::PerTile);
            EXPECT_EQ(tile.pipeline.pipelinedCycles,
                      tile.total.cycles);
            EXPECT_EQ(tile.pipeline.perTileCycles,
                      tile.total.cycles);
            EXPECT_EQ(tile.pipeline.perLayerCycles,
                      layer.total.cycles);
            EXPECT_EQ(tile.pipeline.serialCycles, off.total.cycles);
            EXPECT_EQ(tile.pipeline.tileSavedCycles,
                      layer.total.cycles - tile.total.cycles);
            EXPECT_EQ(layer.pipeline.perLayerCycles,
                      tile.pipeline.perLayerCycles);
            EXPECT_EQ(layer.pipeline.perTileCycles,
                      tile.pipeline.perTileCycles);
        }
    }
}

TEST_F(Pipeline, TileGatingWinsForStreamingConsumers)
{
    // The gating refinement must actually buy cycles where the
    // model says it can: column-product (AWB-GCN) and comb-first
    // chains consume input in vertex order, so their per-tile totals
    // drop strictly below per-layer on both fixtures. Random-gather
    // agg-first chains cannot stream-gate and must not move at all.
    const Dataset cora = testfx::cora();
    for (const AccelConfig &config :
         {makeAwbGcn(), testfx::combFirstPersonality()}) {
        const RunResult layer =
            runNetwork(config, cora, net, overlapped);
        EXPECT_GT(layer.pipeline.tileSavedCycles, 0u) << config.name;
        EXPECT_LT(layer.pipeline.perTileCycles,
                  layer.pipeline.perLayerCycles)
            << config.name;
    }
    const RunResult agg_first =
        runNetwork(makeSgcn(), cora, net, overlapped);
    EXPECT_EQ(agg_first.pipeline.tileSavedCycles, 0u);
}

void
expectWellOrderedSchedule(const LayerResult &layer, const char *what)
{
    const LayerSchedule &s = layer.schedule;
    EXPECT_TRUE(s.wellOrdered()) << what;
    // The weight prefetch prefix exists and leads the timeline.
    EXPECT_EQ(s.inputDma.start, 0u) << what;
    EXPECT_GT(s.inputDma.end, 0u) << what;
    // The drain cannot lead the aggregation it empties.
    EXPECT_GE(s.outputDrain.start, s.aggregation.start) << what;
    EXPECT_GE(s.outputDrain.end, s.aggregation.start) << what;
    // Schedule and totals cannot drift apart.
    EXPECT_EQ(s.criticalEnd(), layer.cycles) << what;
    EXPECT_EQ(s.outputReadyAt(), layer.cycles) << what;
    // Compute begins after the prefetch window opens.
    EXPECT_GT(s.firstFeatureRead(), 0u) << what;
    EXPECT_LE(s.computeStart(), s.computeEnd()) << what;
    // The per-tile availability list is always present and sane
    // (test_schedule_invariants sweeps this exhaustively).
    EXPECT_TRUE(s.tileSpansWellFormed()) << what;
}

TEST_F(Pipeline, SchedulesWellOrderedForEveryDataflowAndMode)
{
    const Dataset cora = testfx::cora();
    for (const AccelConfig &config : allPersonalities()) {
        for (ExecutionMode mode :
             {ExecutionMode::Fast, ExecutionMode::Timing}) {
            RunOptions opts = serial;
            opts.mode = mode;
            const RunResult run = runNetwork(config, cora, net, opts);
            const std::string label =
                config.name +
                (mode == ExecutionMode::Timing ? "/timing" : "/fast");
            expectWellOrderedSchedule(run.inputLayer,
                                      (label + " input").c_str());
            for (const auto &layer : run.sampledLayers)
                expectWellOrderedSchedule(
                    layer, (label + " intermediate").c_str());
        }
    }
}

TEST_F(Pipeline, LayerPipelineChainingInvariants)
{
    LayerSchedule a;
    a.inputDma = {0, 100};
    a.aggregation = {100, 500};
    a.combination = {300, 700};
    a.outputDrain = {600, 800};

    // Self-chaining: the repeat advance hides the input-DMA prefix
    // behind the drain, never more than the full layer.
    const Cycle self = LayerPipeline::advanceBetween(a, a);
    EXPECT_EQ(self, a.criticalEnd() - a.firstFeatureRead());
    EXPECT_LE(self, a.criticalEnd());

    LayerPipeline pipeline;
    pipeline.append(a, 10);
    const NetworkSchedule &net_sched = pipeline.schedule();
    EXPECT_EQ(net_sched.totalCycles, 9 * self + a.criticalEnd());
    EXPECT_LT(net_sched.totalCycles, 10 * a.criticalEnd());

    // A dependent layer whose compute starts immediately cannot
    // overlap at all: the advance degenerates to the full layer.
    LayerSchedule eager = a;
    eager.aggregation.start = 0;
    EXPECT_EQ(LayerPipeline::advanceBetween(a, eager),
              a.criticalEnd());
}

TEST_F(Pipeline, TileAdvanceRefinesLayerAdvance)
{
    // A producer draining four tiles across [600, 800] feeding a
    // streaming consumer that reads its input linearly across
    // [100, 500]: the tile gate must wait only for each chunk, not
    // the whole drain, and must degrade gracefully to the layer
    // gate for random-gather consumers or span-less producers.
    LayerSchedule producer;
    producer.inputDma = {0, 100};
    producer.aggregation = {100, 500};
    producer.combination = {300, 700};
    producer.outputDrain = {600, 800};
    producer.setTileSpans({{100, 200}, {200, 300}, {300, 400},
                           {400, 500}},
                          {650, 700, 750, 800});

    LayerSchedule consumer = producer;
    consumer.sequentialInput = true;

    const Cycle layer_advance =
        LayerPipeline::advanceBetween(producer, consumer);
    const Cycle tile_advance =
        LayerPipeline::tileAdvanceBetween(producer, consumer);
    EXPECT_LT(tile_advance, layer_advance);
    // The binding feature chunk is tile 0 (ready 650 vs first touch
    // 100 = 550), but engine exclusivity (compute end 700 minus
    // compute start 100 = 600) floors the advance; the per-layer
    // gate would have waited the full drain (800 - 100 = 700).
    EXPECT_EQ(tile_advance, 600u);
    EXPECT_EQ(layer_advance, 700u);

    // Random-gather consumers keep the per-layer gate.
    LayerSchedule gather = consumer;
    gather.sequentialInput = false;
    EXPECT_EQ(LayerPipeline::tileAdvanceBetween(producer, gather),
              layer_advance);

    // Producers without tile structure force the per-layer gate.
    LayerSchedule opaque = producer;
    opaque.tileSpans.clear();
    EXPECT_EQ(LayerPipeline::tileAdvanceBetween(opaque, consumer),
              layer_advance);

    // The tile gate can never exceed the layer gate, even with a
    // producer that only releases everything at the very end.
    LayerSchedule lumpy = producer;
    lumpy.setTileSpans({{100, 500}}, {800});
    EXPECT_LE(LayerPipeline::tileAdvanceBetween(lumpy, consumer),
              LayerPipeline::advanceBetween(lumpy, consumer));
}

TEST_F(Pipeline, OverlappedRunsInsideJobsFanOut)
{
    // The overlapped path inside the jobs>1 fan-out: same results as
    // the serial fan-out, in order, without racing (TSan CI job).
    const Dataset cora = testfx::cora();
    const auto configs = allPersonalities();
    RunOptions fanned = overlapped;
    fanned.jobs = 8;

    const auto expected = runAll(configs, cora, net, overlapped);
    const auto actual = runAll(configs, cora, net, fanned);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].accelName, configs[i].name);
        EXPECT_EQ(actual[i].total.cycles, expected[i].total.cycles);
        EXPECT_EQ(actual[i].pipeline.overlapSavedCycles,
                  expected[i].pipeline.overlapSavedCycles);
        expectCountsIdentical(actual[i].total, expected[i].total);
    }
}

TEST_F(Pipeline, TileOverlapRunsInsideJobsFanOut)
{
    // --pipeline=tile under --jobs 2: the per-tile gating path must
    // be bit-identical and ordered inside the fan-out (TSan CI job
    // covers the new gating through this case).
    const Dataset cora = testfx::cora();
    const auto configs = gatingSweepConfigs();
    RunOptions fanned = tiled;
    fanned.jobs = 2;

    const auto expected = runAll(configs, cora, net, tiled);
    const auto actual = runAll(configs, cora, net, fanned);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].accelName, configs[i].name);
        EXPECT_EQ(actual[i].total.cycles, expected[i].total.cycles);
        EXPECT_EQ(actual[i].pipeline.perTileCycles,
                  expected[i].pipeline.perTileCycles);
        EXPECT_EQ(actual[i].pipeline.tileSavedCycles,
                  expected[i].pipeline.tileSavedCycles);
        expectCountsIdentical(actual[i].total, expected[i].total);
    }
}

} // namespace
} // namespace sgcn
