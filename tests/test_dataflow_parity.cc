/**
 * @file
 * Parity tests for the dataflow-strategy layer.
 *
 * The fast-path golden values below were captured from the
 * pre-refactor monolithic LayerEngine on the small Cora fixture
 * (instantiateDataset("CR", 0.1), default NetworkSpec, intermediate
 * layer 1), and the strategy architecture reproduced them
 * bit-identically when it landed. They pin the access streams of all
 * three dataflows: a change here means the simulated traffic or MAC
 * counts moved, which must be an intentional model change, not a
 * refactoring accident.
 *
 * The goldens were captured under glibc's default libm rounding;
 * other platforms may round a handful of slice populations the other
 * way, so each count is checked against a tight band (0.2% relative,
 * two-count absolute floor) rather than exact equality. Zero stays
 * exactly zero: phantom partial-sum traffic is a real bug, not
 * rounding.
 *
 * The timing-mode assertions: both modes consume one sweep program
 * per tile, so they issue the same topology, output and partial-sum
 * line streams and the same MACs exactly, and the same cache
 * requests once the timing cache never parks one. Total off-chip
 * traffic agrees within the eviction-order tolerance of
 * test_accel.cc (15%); single-layer cycle counts agree within a
 * loose factor (the fast roofline has no warm-up or queueing
 * effects, so per-layer gaps run larger than the network-level
 * speedup agreement).
 *
 * The timing pins below fix every field of a timing-mode layer
 * exactly, phase spans and tile spans included: the cross-mode
 * checks above cannot see when an event moves. They run every
 * personality's input layer and layer 1 on the Cora fixture, and
 * the row-product personalities again at 128-row destination tiles,
 * where a layer makes enough tiles (at least kMinTileSpans) that
 * its schedule carries the observed per-tile windows, not the
 * uniform fallback.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>

#include "accel/layer_engine.hh"
#include "accel/personalities.hh"
#include "fixtures.hh"

namespace sgcn
{
namespace
{

/** Golden fast-path counts of one dataflow on the Cora fixture. */
struct GoldenLayer
{
    std::uint64_t topologyRead;
    std::uint64_t featureInRead;
    std::uint64_t featureOutWrite;
    std::uint64_t weightRead;
    std::uint64_t psumRead;
    std::uint64_t psumWrite;
    std::uint64_t macs;
    Cycle aggCycles;
    Cycle combCycles;
    Cycle cycles;
};

constexpr GoldenLayer kGoldenAggFirst = {
    2433, 40082, 39901, 4096, 0, 0, 108210433, 9005, 16536, 18685};
constexpr GoldenLayer kGoldenCombFirst = {
    2818, 73026, 39901, 4096, 0, 26208, 109387264, 17792, 33063, 37417};
constexpr GoldenLayer kGoldenColumnProduct = {
    2433, 52416, 52416, 4096, 26208, 0, 47746048, 26816, 8892, 28951};

/** Exact timing-mode counts of one layer on the Cora fixture; the
 *  digest covers the per-class lines, the retries, bwUtil and the
 *  whole schedule (timingLayerDigest). */
struct TimingPin
{
    const char *accel;
    bool inputLayer;
    /** Destination-tile rows; 0 keeps the personality's. */
    VertexId dstTileRows;
    Cycle cycles;
    Cycle aggCycles;
    Cycle combCycles;
    std::uint64_t cacheAccesses;
    std::uint64_t cacheHits;
    std::uint64_t macs;
    std::uint64_t digest;
};

constexpr TimingPin kTimingPins[] = {
    {"GCNAX", true, 0, 81398, 36934, 24492, 128407, 62625, 173544448,
     0xea42f9a851b5ad05ull},
    {"GCNAX", false, 0, 81961, 36921, 16536, 128357, 62394, 109387264,
     0xe61ce8186935c9e9ull},
    {"HyGCN", true, 0, 97349, 52885, 24492, 128583, 47175, 173544448,
     0x0eeaaec49555356dull},
    {"HyGCN", false, 0, 97869, 52829, 16536, 128668, 47306, 109387264,
     0x888b8ef7e3743d25ull},
    {"AWB-GCN", true, 0, 29259, 16493, 3536, 258502, 192728, 4555264,
     0xaec89913b42ddcdfull},
    {"AWB-GCN", false, 0, 30117, 16493, 8892, 258502, 192730, 47746048,
     0xb21e5cdc8b8ee32aull},
    {"EnGN", true, 0, 94073, 49609, 24492, 128422, 52308, 173544448,
     0xe6108657f0d023b5ull},
    {"EnGN", false, 0, 97869, 52829, 16536, 128668, 47306, 109387264,
     0x888b8ef7e3743d25ull},
    {"I-GCN", true, 0, 81398, 36934, 24492, 128407, 62625, 173544448,
     0xea42f9a851b5ad05ull},
    {"I-GCN", false, 0, 81961, 36921, 16536, 128357, 62394, 109387264,
     0xe61ce8186935c9e9ull},
    {"SGCN", true, 0, 51655, 24146, 10828, 127787, 80410, 4555264,
     0x783da51b4e5d1cf1ull},
    {"SGCN", false, 0, 50993, 9194, 16536, 67488, 49345, 108210433,
     0x4f7185dedf25cd51ull},
    {"GCNAX", true, 128, 54824, 27258, 24492, 127625, 79277, 173544448,
     0x40a7f966377d5511ull},
    {"GCNAX", false, 128, 34548, 29498, 16536, 127620, 79181, 109387264,
     0x481fed1d7086fdb0ull},
    {"HyGCN", true, 128, 56530, 28898, 24492, 127798, 79351, 173544448,
     0xbfea3c22c51f5d71ull},
    {"HyGCN", false, 128, 36192, 31434, 16536, 127780, 79469, 109387264,
     0x78b94c5713b4fee6ull},
    {"EnGN", true, 128, 55660, 27989, 24492, 127760, 81581, 173544448,
     0xaf0f5766c589892cull},
    {"EnGN", false, 128, 36192, 31434, 16536, 127780, 79469, 109387264,
     0x78b94c5713b4fee6ull},
    {"I-GCN", true, 128, 54824, 27258, 24492, 127625, 79277, 173544448,
     0x40a7f966377d5511ull},
    {"I-GCN", false, 128, 34548, 29498, 16536, 127620, 79181, 109387264,
     0x481fed1d7086fdb0ull},
    {"SGCN", true, 128, 50143, 36703, 10828, 127456, 87391, 4555264,
     0x256f959af183a881ull},
    {"SGCN", false, 128, 25114, 20732, 16536, 67488, 47534, 108210433,
     0x2eb00b29c2bfba29ull},
};

/** FNV-1a over the LayerResult fields a TimingPin keeps out of the
 *  clear. */
std::uint64_t
timingLayerDigest(const LayerResult &r)
{
    std::uint64_t hash = 14695981039346656037ull;
    const auto mix = [&hash](std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (value >> (8 * byte)) & 0xff;
            hash *= 1099511628211ull;
        }
    };
    for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
        mix(r.traffic.readLines[c]);
        mix(r.traffic.writeLines[c]);
    }
    mix(r.dramRetries);
    std::uint64_t bw_bits = 0;
    static_assert(sizeof(bw_bits) == sizeof(r.bwUtil));
    std::memcpy(&bw_bits, &r.bwUtil, sizeof(bw_bits));
    mix(bw_bits);
    const LayerSchedule &s = r.schedule;
    for (const PhaseSpan &span :
         {s.inputDma, s.aggregation, s.combination, s.outputDrain}) {
        mix(span.start);
        mix(span.end);
    }
    mix(s.sequentialInput);
    mix(s.tileSpans.size());
    for (const TileSpan &tile : s.tileSpans) {
        mix(tile.tile);
        mix(tile.inputConsume.start);
        mix(tile.inputConsume.end);
        mix(tile.outputReady);
    }
    return hash;
}

struct DataflowParity : ::testing::Test
{
    Dataset cora = testfx::cora(0.1);
    NetworkSpec net;

    /** Intermediate layer 1 of @p dataset, or its input layer when
     *  @p input_layer, in @p mode. */
    LayerResult
    runLayer(const Dataset &dataset, const AccelConfig &config,
             bool input_layer, ExecutionMode mode)
    {
        LayerContext ctx =
            input_layer
                ? makeInputLayer(dataset, dataset.graph, config, net)
                : makeIntermediateLayer(dataset, dataset.graph, config,
                                        net, 1);
        LayerEngine engine(config, ctx);
        return engine.run(mode);
    }

    LayerResult
    runLayer(const AccelConfig &config, ExecutionMode mode)
    {
        return runLayer(cora, config, false, mode);
    }

    static AccelConfig
    combFirstConfig()
    {
        return testfx::combFirstPersonality();
    }

    /** A count must sit inside the golden band: 0.2% relative with
     *  a two-count absolute floor, and exact zero for zero. */
    static void
    expectInGoldenBand(std::uint64_t actual, std::uint64_t golden,
                       const char *what)
    {
        if (golden == 0) {
            EXPECT_EQ(actual, 0u) << what;
            return;
        }
        const double tolerance = std::max(
            2.0, static_cast<double>(golden) * 0.002);
        EXPECT_NEAR(static_cast<double>(actual),
                    static_cast<double>(golden), tolerance)
            << what;
    }

    void
    expectGolden(const LayerResult &r, const GoldenLayer &g)
    {
        expectInGoldenBand(
            r.traffic.readLines[static_cast<unsigned>(
                TrafficClass::Topology)],
            g.topologyRead, "topology reads");
        expectInGoldenBand(
            r.traffic.readLines[static_cast<unsigned>(
                TrafficClass::FeatureIn)],
            g.featureInRead, "feature-in reads");
        expectInGoldenBand(
            r.traffic.writeLines[static_cast<unsigned>(
                TrafficClass::FeatureOut)],
            g.featureOutWrite, "feature-out writes");
        expectInGoldenBand(
            r.traffic.readLines[static_cast<unsigned>(
                TrafficClass::Weight)],
            g.weightRead, "weight reads");
        expectInGoldenBand(
            r.traffic.readLines[static_cast<unsigned>(
                TrafficClass::PartialSum)],
            g.psumRead, "partial-sum reads");
        expectInGoldenBand(
            r.traffic.writeLines[static_cast<unsigned>(
                TrafficClass::PartialSum)],
            g.psumWrite, "partial-sum writes");
        expectInGoldenBand(r.macs, g.macs, "MACs");
        expectInGoldenBand(r.aggCycles, g.aggCycles,
                           "aggregation cycles");
        expectInGoldenBand(r.combCycles, g.combCycles,
                           "combination cycles");
        expectInGoldenBand(r.cycles, g.cycles, "total cycles");
    }

    void
    expectModesAgree(const AccelConfig &config, const Dataset &dataset,
                     bool input_layer, double max_cycle_ratio)
    {
        const LayerResult fast =
            runLayer(dataset, config, input_layer, ExecutionMode::Fast);
        const LayerResult timing = runLayer(dataset, config, input_layer,
                                            ExecutionMode::Timing);
        // One program per tile: exactly the same MAC work and the
        // same uncached streams...
        EXPECT_EQ(fast.macs, timing.macs);
        const auto topology =
            static_cast<unsigned>(TrafficClass::Topology);
        const auto out = static_cast<unsigned>(TrafficClass::FeatureOut);
        const auto psum =
            static_cast<unsigned>(TrafficClass::PartialSum);
        EXPECT_EQ(fast.traffic.readLines[topology],
                  timing.traffic.readLines[topology]);
        EXPECT_EQ(fast.traffic.writeLines[out],
                  timing.traffic.writeLines[out]);
        EXPECT_EQ(fast.traffic.writeLines[psum],
                  timing.traffic.writeLines[psum]);
        // ...the same shared-cache requests, once the timing cache has
        // MSHRs enough never to park one (a parked request is counted
        // again when it drains, ROADMAP item 1). AWB-GCN's accumulator
        // banks take their MSHR count from no config field...
        if (config.dataflow != DataflowKind::ColumnProduct) {
            AccelConfig roomy = config;
            roomy.cache.mshrs = 1024;
            EXPECT_EQ(runLayer(dataset, roomy, input_layer,
                               ExecutionMode::Fast)
                          .cacheAccesses,
                      runLayer(dataset, roomy, input_layer,
                               ExecutionMode::Timing)
                          .cacheAccesses);
        }
        // ...and off-chip totals within the eviction-order tolerance
        // test_accel.cc uses.
        const double traffic_ratio =
            static_cast<double>(timing.traffic.totalLines()) /
            static_cast<double>(fast.traffic.totalLines());
        EXPECT_NEAR(traffic_ratio, 1.0, 0.15);
        // Single-layer cycles agree within a loose factor.
        const double cycle_ratio =
            static_cast<double>(timing.cycles) /
            static_cast<double>(fast.cycles);
        EXPECT_LT(std::abs(std::log(cycle_ratio)),
                  std::log(max_cycle_ratio));
    }

    void
    expectModesAgree(const AccelConfig &config)
    {
        expectModesAgree(config, cora, false, 4.0);
    }
};

TEST_F(DataflowParity, AggFirstFastMatchesGolden)
{
    expectGolden(runLayer(makeSgcn(), ExecutionMode::Fast),
                 kGoldenAggFirst);
}

TEST_F(DataflowParity, CombFirstFastMatchesGolden)
{
    expectGolden(runLayer(combFirstConfig(), ExecutionMode::Fast),
                 kGoldenCombFirst);
}

TEST_F(DataflowParity, ColumnProductFastMatchesGolden)
{
    expectGolden(runLayer(makeAwbGcn(), ExecutionMode::Fast),
                 kGoldenColumnProduct);
}

TEST_F(DataflowParity, AggFirstModesAgree)
{
    expectModesAgree(makeSgcn());
}

TEST_F(DataflowParity, CombFirstModesAgree)
{
    expectModesAgree(combFirstConfig());
}

TEST_F(DataflowParity, ColumnProductModesAgree)
{
    expectModesAgree(makeAwbGcn());
}

TEST_F(DataflowParity, EveryPersonalityModesAgreeOnCrCsPm)
{
    // The cycle band is wider than the Cora tests' 4x: PM's EnGN
    // intermediate layer reads 4.11x timing over fast (HyGCN's
    // 3.84x, five more layers between 3.8x and 4x), the single-layer
    // face of ROADMAP item 1's fast/timing cycle gap.
    for (const char *abbrev : {"CR", "CS", "PM"}) {
        const Dataset dataset = testfx::datasetFixture(abbrev);
        for (const AccelConfig &config : allPersonalities()) {
            for (const bool input_layer : {true, false}) {
                SCOPED_TRACE(std::string(abbrev) + " " + config.name +
                             (input_layer ? " input layer" : " layer 1"));
                expectModesAgree(config, dataset, input_layer, 4.5);
            }
        }
    }
}

TEST_F(DataflowParity, TimingLayersArePinnedExactly)
{
    std::size_t tiled = 0;
    for (const TimingPin &pin : kTimingPins) {
        AccelConfig config = personalityByName(pin.accel);
        if (pin.dstTileRows != 0)
            config.dstTileRows = pin.dstTileRows;
        const LayerResult r = runLayer(cora, config, pin.inputLayer,
                                       ExecutionMode::Timing);
        char actual[256];
        std::snprintf(
            actual, sizeof(actual),
            "{\"%s\", %s, %u, %llu, %llu, %llu, %llu, %llu, %llu, "
            "0x%016llxull},",
            pin.accel, pin.inputLayer ? "true" : "false",
            pin.dstTileRows, static_cast<unsigned long long>(r.cycles),
            static_cast<unsigned long long>(r.aggCycles),
            static_cast<unsigned long long>(r.combCycles),
            static_cast<unsigned long long>(r.cacheAccesses),
            static_cast<unsigned long long>(r.cacheHits),
            static_cast<unsigned long long>(r.macs),
            static_cast<unsigned long long>(timingLayerDigest(r)));
        SCOPED_TRACE(actual);
        EXPECT_EQ(r.cycles, pin.cycles);
        EXPECT_EQ(r.aggCycles, pin.aggCycles);
        EXPECT_EQ(r.combCycles, pin.combCycles);
        EXPECT_EQ(r.cacheAccesses, pin.cacheAccesses);
        EXPECT_EQ(r.cacheHits, pin.cacheHits);
        EXPECT_EQ(r.macs, pin.macs);
        EXPECT_EQ(timingLayerDigest(r), pin.digest);
        if (pin.dstTileRows != 0 &&
            r.schedule.tileSpans.size() > kMinTileSpans)
            ++tiled;
    }
    // Every personality on both layers, and the five row-product
    // personalities again at 128-row tiles...
    EXPECT_EQ(std::size(kTimingPins), 22u);
    // ...where every layer keeps more than the fallback's spans.
    EXPECT_EQ(tiled, 10u);
}

TEST_F(DataflowParity, InputLayerRunsCombFirst)
{
    // SIII-A: row-product personalities run their input layer
    // combination-first because the width shrinks.
    const AccelConfig config = makeSgcn();
    LayerContext input = makeInputLayer(cora, cora.graph, config, net);
    LayerEngine engine(config, input);
    EXPECT_EQ(engine.effectiveDataflow(),
              DataflowKind::CombFirstRowProduct);

    LayerContext mid =
        makeIntermediateLayer(cora, cora.graph, config, net, 1);
    LayerEngine mid_engine(config, mid);
    EXPECT_EQ(mid_engine.effectiveDataflow(),
              DataflowKind::AggFirstRowProduct);
}

} // namespace
} // namespace sgcn
