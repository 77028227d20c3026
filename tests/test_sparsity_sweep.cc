/**
 * @file
 * Parameterized property sweeps over the sparsity model and the
 * dataset registry: every (dataset x depth x residual) combination
 * must respect the paper's observed bands and monotonicity claims,
 * generated masks must track the model, and totals extrapolated from
 * sampled layers must track full-depth totals.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "gcn/feature_matrix.hh"
#include "gcn/sparsity_model.hh"
#include "graph/datasets.hh"
#include "accel/personalities.hh"
#include "accel/runner.hh"

namespace sgcn
{
namespace
{

class SparsitySweep
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{
  protected:
    DatasetSpec
    spec() const
    {
        return datasetByAbbrev(std::get<0>(GetParam()));
    }

    unsigned
    depth() const
    {
        return std::get<1>(GetParam());
    }
};

TEST_P(SparsitySweep, ResidualStaysInObservedBand)
{
    // SVII-A: all observed intermediate sparsity lies in 40-80%
    // (we clamp at 82% for the deepest networks).
    const double s = modeledAvgSparsity(spec(), depth(), true);
    EXPECT_GE(s, 0.40);
    EXPECT_LE(s, 0.82);
}

TEST_P(SparsitySweep, ResidualAboveTraditional)
{
    EXPECT_GT(modeledAvgSparsity(spec(), depth(), true),
              modeledAvgSparsity(spec(), depth(), false));
}

TEST_P(SparsitySweep, ProfileStaysInBand)
{
    if (depth() < 2)
        GTEST_SKIP();
    NetworkSpec net;
    net.layers = depth();
    for (double s : sparsityProfile(spec(), net)) {
        EXPECT_GE(s, 0.40);
        EXPECT_LE(s, 0.82);
    }
}

TEST_P(SparsitySweep, MaskMatchesModel)
{
    if (depth() < 2)
        GTEST_SKIP();
    const unsigned layer = depth() / 2 + 1;
    const double target =
        modeledLayerSparsity(spec(), layer, depth(), true);
    Rng rng(401);
    const FeatureMask mask =
        FeatureMask::random(2048, 256, target, rng);
    EXPECT_NEAR(mask.sparsity(), target, 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasetsAndDepths, SparsitySweep,
    ::testing::Combine(::testing::Values("CR", "CS", "PM", "NL", "RD",
                                         "FK", "YP", "DB", "GH"),
                       ::testing::Values(3u, 7u, 28u, 112u, 1000u)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_L" +
               std::to_string(std::get<1>(info.param));
    });

TEST(SparsitySweepExtra, DepthMonotoneForResidual)
{
    // Fig. 1: deeper residual networks are (weakly) sparser.
    for (const auto &spec : allDatasets()) {
        double previous = 0.0;
        for (unsigned depth : {3u, 7u, 14u, 28u, 56u, 112u, 448u}) {
            const double s = modeledAvgSparsity(spec, depth, true);
            EXPECT_GE(s + 1e-9, previous) << spec.abbrev << " L"
                                          << depth;
            previous = s;
        }
    }
}

TEST(SparsitySweepExtra, SparsityOrderingPreservedAt28)
{
    // The Fig. 3 dataset ordering is a property of the model too.
    const auto sorted = datasetsBySparsity();
    double previous = 0.0;
    for (const auto &spec : sorted) {
        const double s = modeledAvgSparsity(spec, 28, true);
        EXPECT_GE(s, previous);
        previous = s;
    }
}

TEST(SparsitySweepExtra, RunnerHonoursInputLayerToggle)
{
    // includeInputLayer=false drops exactly the input-layer portion.
    Dataset cora = instantiateDataset(datasetByAbbrev("CR"), 0.08);
    NetworkSpec net;
    RunOptions with_input;
    with_input.sampledIntermediateLayers = 2;
    RunOptions without = with_input;
    without.includeInputLayer = false;

    // Deferred include to avoid a header cycle in this test file.
    const RunResult a =
        runNetwork(makeSgcn(), cora, net, with_input);
    const RunResult b = runNetwork(makeSgcn(), cora, net, without);
    EXPECT_EQ(b.inputLayer.cycles, 0u);
    EXPECT_LT(b.total.cycles, a.total.cycles);
    EXPECT_EQ(a.total.cycles - a.inputLayer.cycles, b.total.cycles);
}

TEST(SparsitySweepExtra, ParallelSweepMatchesSerialSweep)
{
    // The jobs knob must not change what a sweep computes: fanning
    // the personality sweep out across every hardware thread returns
    // the same totals in the same input order as the serial loop.
    Dataset cora = instantiateDataset(datasetByAbbrev("CR"), 0.08);
    NetworkSpec net;
    RunOptions serial;
    serial.sampledIntermediateLayers = 2;
    RunOptions fanned = serial;
    fanned.jobs = 0; // all hardware threads

    const std::vector<AccelConfig> configs{makeGcnax(), makeSgcn(),
                                           makeAwbGcn()};
    const auto a = runAll(configs, cora, net, serial);
    const auto b = runAll(configs, cora, net, fanned);
    ASSERT_EQ(a.size(), configs.size());
    ASSERT_EQ(b.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(a[i].accelName, configs[i].name);
        EXPECT_EQ(b[i].accelName, configs[i].name);
        EXPECT_EQ(a[i].total.cycles, b[i].total.cycles);
        EXPECT_EQ(a[i].total.macs, b[i].total.macs);
        EXPECT_EQ(a[i].total.traffic.totalLines(),
                  b[i].total.traffic.totalLines());
    }
}

TEST(SparsitySweepExtra, SamplingMoreLayersConverges)
{
    // Extrapolated totals from 4 vs 8 sampled layers agree within a
    // few percent — the stratified sampling claim of runner.hh.
    Dataset cora = instantiateDataset(datasetByAbbrev("CR"), 0.08);
    NetworkSpec net;
    RunOptions coarse;
    coarse.sampledIntermediateLayers = 4;
    RunOptions fine = coarse;
    fine.sampledIntermediateLayers = 8;
    const double a = static_cast<double>(
        runNetwork(makeSgcn(), cora, net, coarse).total.cycles);
    const double b = static_cast<double>(
        runNetwork(makeSgcn(), cora, net, fine).total.cycles);
    EXPECT_NEAR(a / b, 1.0, 0.05);
}

TEST(SparsitySweepExtra, DepthExtrapolationMatchesFullDepth)
{
    // Totals extrapolated from 4 sampled intermediate layers against
    // simulating all 27. A dense personality's engines read nothing
    // of a layer's sparsity, so every sample is the same layer and
    // the extrapolation is exact. AWB-GCN's zero-skipping combination
    // and SGCN's BEICSR follow the sparsity trend, which the stratum
    // midpoints track to within 1% in cycles and lines. AWB-GCN's
    // MACs are the exception: they scale with each layer's density,
    // and on CR the midpoints overstate them by 1.69% in both modes
    // (-0.49% on CS, -0.26% on PM), so they get a 2% band.
    const NetworkSpec net;
    const struct
    {
        const char *dataset;
        ExecutionMode mode;
    } cases[] = {
        {"CR", ExecutionMode::Fast},
        {"CS", ExecutionMode::Fast},
        {"PM", ExecutionMode::Fast},
        {"CR", ExecutionMode::Timing},
    };
    for (const auto &c : cases) {
        const Dataset dataset =
            instantiateDataset(datasetByAbbrev(c.dataset), 0.08);
        RunOptions sampled;
        sampled.mode = c.mode;
        RunOptions full = sampled;
        full.sampledIntermediateLayers = net.layers - 1;
        for (const AccelConfig &config : allPersonalities()) {
            const bool awb = config.name == "AWB-GCN";
            const bool trend = awb || config.name == "SGCN";
            const LayerResult a =
                runNetwork(config, dataset, net, sampled).total;
            const LayerResult b =
                runNetwork(config, dataset, net, full).total;
            const struct
            {
                const char *name;
                double sampled, full, band;
            } totals[] = {
                {"cycles", static_cast<double>(a.cycles),
                 static_cast<double>(b.cycles), 0.01},
                {"lines", static_cast<double>(a.traffic.totalLines()),
                 static_cast<double>(b.traffic.totalLines()), 0.01},
                {"macs", static_cast<double>(a.macs),
                 static_cast<double>(b.macs), awb ? 0.02 : 0.01},
            };
            for (const auto &t : totals) {
                SCOPED_TRACE(config.name + " on " + c.dataset +
                             (c.mode == ExecutionMode::Timing
                                  ? ", timing: "
                                  : ", fast: ") +
                             t.name);
                if (!trend) {
                    EXPECT_EQ(t.sampled, t.full);
                    continue;
                }
                std::printf("%-7s %s %-6s %-6s error %+.4f%%\n",
                            config.name.c_str(), c.dataset,
                            c.mode == ExecutionMode::Timing ? "timing"
                                                            : "fast",
                            t.name, 100.0 * (t.sampled / t.full - 1.0));
                EXPECT_NEAR(t.sampled / t.full, 1.0, t.band);
            }
        }
    }
}

} // namespace
} // namespace sgcn
