/**
 * @file
 * Tests for layer reuse in the runner (accel/runner.cc): a chip whose
 * next layer has the same engine inputs as the last layer it ran
 * (LayerEngine::sameInputs) copies that layer's result instead of
 * simulating it again. Every sampled layer of a run must equal its
 * context simulated on an engine of its own, for every personality
 * in both modes; the dense personalities, whose engines read nothing
 * of a layer's sparsity, share inputs across all sampled layers, and
 * the zero-skipping and compressed ones never do; and a chip stall
 * stays on the layer it hits. Runs under the TSan CI job (labelled
 * `thread` in CMakeLists): the two-chip case fills per-chip slots
 * from pool threads.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

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

/** The personalities that keep features dense and never zero-skip. */
bool
isDensePersonality(const AccelConfig &config)
{
    for (const char *name : {"GCNAX", "HyGCN", "EnGN", "I-GCN"}) {
        if (config.name == name)
            return true;
    }
    return false;
}

/** The whole-graph contexts of a one-chip run's sampled intermediate
 *  layers, built as the runner builds them (on the islandized graph
 *  for I-GCN). */
std::vector<LayerContext>
sampledContexts(const AccelConfig &config, const Dataset &dataset,
                const NetworkSpec &net, const RunOptions &opts)
{
    std::shared_ptr<const CsrGraph> reordered;
    const CsrGraph *graph = &dataset.graph;
    if (config.islandReorder) {
        reordered = PreprocessCache::instance().islandized(
            dataset.graph);
        graph = reordered.get();
    }
    std::vector<LayerContext> contexts;
    for (unsigned idx : sampleLayerIndices(
             net.layers - 1, opts.sampledIntermediateLayers)) {
        contexts.push_back(makeIntermediateLayer(dataset, *graph,
                                                 config, net, idx + 1));
    }
    return contexts;
}

FaultPlan
plan(const std::string &spec)
{
    Expected<FaultPlan> parsed = FaultPlan::parse(spec);
    EXPECT_TRUE(parsed.ok()) << spec;
    return std::move(parsed).orFatal();
}

TEST(LayerReuse, RunMatchesIndependentEngines)
{
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
        const Dataset dataset = testfx::datasetFixture(c.dataset);
        RunOptions opts;
        opts.mode = c.mode;
        for (const AccelConfig &config : allPersonalities()) {
            SCOPED_TRACE(config.name + " on " + c.dataset +
                         (c.mode == ExecutionMode::Timing ? ", timing"
                                                          : ", fast"));
            Expected<RunResult> run =
                tryRunNetwork(config, dataset, net, opts);
            ASSERT_TRUE(run.ok());
            const std::vector<LayerContext> contexts =
                sampledContexts(config, dataset, net, opts);
            const auto &sampled = run.value().sampledLayers;
            ASSERT_EQ(sampled.size(), contexts.size());
            for (std::size_t i = 0; i < contexts.size(); ++i) {
                SCOPED_TRACE("sampled layer " + std::to_string(i));
                LayerEngine engine(config, contexts[i]);
                expectLayerIdentical(sampled[i], engine.run(c.mode));
            }
        }
    }
}

TEST(LayerReuse, DensePersonalitiesShareInputs)
{
    const NetworkSpec net;
    const RunOptions opts;
    for (const char *abbrev : {"CR", "CS", "PM"}) {
        const Dataset dataset = testfx::datasetFixture(abbrev);
        for (const AccelConfig &config : allPersonalities()) {
            SCOPED_TRACE(config.name + " on " + abbrev);
            const std::vector<LayerContext> contexts =
                sampledContexts(config, dataset, net, opts);
            ASSERT_EQ(contexts.size(), opts.sampledIntermediateLayers);
            const bool dense = isDensePersonality(config);
            for (std::size_t i = 0; i < contexts.size(); ++i) {
                for (std::size_t j = i + 1; j < contexts.size(); ++j) {
                    EXPECT_EQ(LayerEngine::sameInputs(
                                  config, contexts[i], contexts[j]),
                              dense)
                        << "sampled layers " << i << " and " << j;
                }
            }
        }
    }
}

TEST(LayerReuse, StallStaysOnItsLayer)
{
    const Dataset dataset = testfx::cora();
    const NetworkSpec net;
    RunOptions opts;
    opts.chips = 2;
    // The sampled intermediate layers are 4, 11, 17 and 24; the stall
    // hits the second, whose result the third and fourth reuse.
    const std::vector<unsigned> expected = {3, 10, 16, 23};
    ASSERT_EQ(sampleLayerIndices(net.layers - 1,
                                 opts.sampledIntermediateLayers),
              expected);
    const RunResult clean = runNetwork(makeGcnax(), dataset, net, opts);
    opts.faults = plan("chip-stall:chip1:100000@layer11");
    const RunResult stalled =
        runNetwork(makeGcnax(), dataset, net, opts);

    ASSERT_EQ(stalled.sampledLayers.size(), 4u);
    for (std::size_t i : {0u, 2u, 3u}) {
        SCOPED_TRACE("sampled layer " + std::to_string(i));
        expectLayerIdentical(stalled.sampledLayers[i],
                             clean.sampledLayers[i]);
    }
    EXPECT_GT(stalled.sampledLayers[1].cycles,
              clean.sampledLayers[1].cycles);
    // The one stalled layer stands for its stratum of 6.75 layers.
    EXPECT_EQ(stalled.faults.stallCycles, 675000u);
}

TEST(LayerReuse, TwoChipsUnderJobsMatchSerial)
{
    const Dataset dataset = testfx::cora();
    const NetworkSpec net;
    RunOptions serial;
    serial.chips = 2;
    RunOptions fanned = serial;
    fanned.jobs = 2;
    for (const AccelConfig &config : allPersonalities()) {
        SCOPED_TRACE(config.name);
        const RunResult a = runNetwork(config, dataset, net, serial);
        const RunResult b = runNetwork(config, dataset, net, fanned);
        expectRunIdentical(a, b);
        if (isDensePersonality(config)) {
            for (std::size_t i = 1; i < b.sampledLayers.size(); ++i)
                expectLayerIdentical(b.sampledLayers[i],
                                     b.sampledLayers[0]);
        }
    }
}

} // namespace
} // namespace sgcn
