/**
 * @file
 * Shared test fixtures and comparison helpers.
 *
 * The Cora/Citeseer personality fixtures (and the "every count is
 * bit-identical" expectations) used to be duplicated across
 * test_dataflow_parity.cc, test_pipeline.cc, test_parallel_runner.cc
 * and now the schedule-invariant suite; they live here so a fixture
 * change cannot silently diverge between suites.
 */

#ifndef SGCN_TESTS_FIXTURES_HH
#define SGCN_TESTS_FIXTURES_HH

#include <gtest/gtest.h>

#include <sstream>

#include "accel/personalities.hh"
#include "accel/report.hh"
#include "accel/result.hh"
#include "graph/datasets.hh"

namespace sgcn::testfx
{

/** Default instantiation scale of the test datasets: small enough
 *  for timing-mode sweeps, large enough for non-trivial tiling. */
constexpr double kDefaultScale = 0.08;

/** The small Cora fixture. */
inline Dataset
cora(double scale = kDefaultScale)
{
    return instantiateDataset(datasetByAbbrev("CR"), scale);
}

/** The small Citeseer fixture. */
inline Dataset
citeseer(double scale = kDefaultScale)
{
    return instantiateDataset(datasetByAbbrev("CS"), scale);
}

/** The test dataset for the Table II abbreviation @p abbrev. */
inline Dataset
datasetFixture(const char *abbrev, double scale = kDefaultScale)
{
    return instantiateDataset(datasetByAbbrev(abbrev), scale);
}

/** An SGCN personality flipped to the combination-first dataflow:
 *  the streaming consumer the per-tile pipeline gates finest. */
inline AccelConfig
combFirstPersonality()
{
    AccelConfig config = makeSgcn();
    config.dataflow = DataflowKind::CombFirstRowProduct;
    return config;
}

/** Work counts (traffic, cache, MACs) are bit-identical. */
inline void
expectCountsIdentical(const LayerResult &a, const LayerResult &b)
{
    for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
        EXPECT_EQ(a.traffic.readLines[c], b.traffic.readLines[c]);
        EXPECT_EQ(a.traffic.writeLines[c], b.traffic.writeLines[c]);
    }
    EXPECT_EQ(a.cacheAccesses, b.cacheAccesses);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.macs, b.macs);
}

/** Two phase spans cover the same cycles. */
inline void
expectSpanIdentical(const PhaseSpan &a, const PhaseSpan &b)
{
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
}

/** Two layer schedules are bit-identical: the four phase spans, the
 *  streaming flag and every tile span the pipeline chains. */
inline void
expectScheduleIdentical(const LayerSchedule &a, const LayerSchedule &b)
{
    expectSpanIdentical(a.inputDma, b.inputDma);
    expectSpanIdentical(a.aggregation, b.aggregation);
    expectSpanIdentical(a.combination, b.combination);
    expectSpanIdentical(a.outputDrain, b.outputDrain);
    EXPECT_EQ(a.sequentialInput, b.sequentialInput);
    ASSERT_EQ(a.tileSpans.size(), b.tileSpans.size());
    for (std::size_t t = 0; t < a.tileSpans.size(); ++t) {
        EXPECT_EQ(a.tileSpans[t].tile, b.tileSpans[t].tile);
        expectSpanIdentical(a.tileSpans[t].inputConsume,
                            b.tileSpans[t].inputConsume);
        EXPECT_EQ(a.tileSpans[t].outputReady,
                  b.tileSpans[t].outputReady);
    }
}

/** Every layer quantity — counts, cycles and the schedule — is
 *  bit-identical. */
inline void
expectLayerIdentical(const LayerResult &a, const LayerResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.aggCycles, b.aggCycles);
    EXPECT_EQ(a.combCycles, b.combCycles);
    expectCountsIdentical(a, b);
    EXPECT_EQ(a.dramRetries, b.dramRetries);
    // Doubles compare exactly: identical inputs through identical
    // arithmetic must give identical bits, threads or not.
    EXPECT_EQ(a.bwUtil, b.bwUtil);
    expectScheduleIdentical(a.schedule, b.schedule);
}

/** Whole runs are bit-identical, layer by layer. */
inline void
expectRunIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.accelName, b.accelName);
    EXPECT_EQ(a.datasetAbbrev, b.datasetAbbrev);
    expectLayerIdentical(a.total, b.total);
    expectLayerIdentical(a.inputLayer, b.inputLayer);
    ASSERT_EQ(a.sampledLayers.size(), b.sampledLayers.size());
    for (std::size_t i = 0; i < a.sampledLayers.size(); ++i)
        expectLayerIdentical(a.sampledLayers[i], b.sampledLayers[i]);
    EXPECT_EQ(a.energy.computeJ, b.energy.computeJ);
    EXPECT_EQ(a.energy.cacheJ, b.energy.cacheJ);
    EXPECT_EQ(a.energy.dramJ, b.energy.dramJ);
    EXPECT_EQ(a.tdpWatts, b.tdpWatts);
    EXPECT_EQ(a.areaMm2, b.areaMm2);
}

/** The CSV writeRunsCsv writes for @p runs. */
inline std::string
csvText(const std::vector<RunResult> &runs)
{
    std::ostringstream os;
    writeRunsCsv(runs, os);
    return os.str();
}

} // namespace sgcn::testfx

#endif // SGCN_TESTS_FIXTURES_HH
