/**
 * @file
 * Exact traffic-accounting tests: on tiny inputs the layer engine's
 * line counts must equal hand-computed values, and secondary
 * mechanisms (DAVC, first-layer CSR, weight streams) must move
 * exactly the bytes they claim.
 */

#include <gtest/gtest.h>

#include "accel/layer_engine.hh"
#include "accel/personalities.hh"
#include "accel/runner.hh"
#include "accel/stream_artifacts.hh"
#include "accel/workload.hh"
#include "core/beicsr.hh"
#include "formats/dense.hh"
#include "gcn/sparsity_model.hh"

namespace sgcn
{
namespace
{

/** Tiny deterministic context: path graph, hand-checkable sizes. */
struct TinyFixture : ::testing::Test
{
    static constexpr VertexId kN = 8;
    static constexpr std::uint32_t kWidth = 64;

    CsrGraph graph = CsrGraph(
        kN, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}});

    LayerContext
    makeContext(const AccelConfig &config, double sparsity)
    {
        LayerContext ctx;
        ctx.graph = &graph;
        ctx.isInputLayer = false;
        ctx.residual = true;
        ctx.edgeBytes = 8;
        ctx.inWidth = kWidth;
        ctx.outWidth = kWidth;
        ctx.inSparsity = sparsity;
        ctx.outSparsity = sparsity;
        auto &artifacts = StreamArtifactCache::instance();
        const auto in_mask =
            artifacts.randomMask(kN, kWidth, sparsity, 1);
        const auto out_mask =
            artifacts.randomMask(kN, kWidth, sparsity, 2);
        ctx.inMask = in_mask.mask;
        ctx.outMask = out_mask.mask;
        ctx.inLayout = artifacts.preparedLayout(
            config.format, kWidth, config.sliceC, 0.5,
            AddressMap::kFeatureInBase, in_mask);
        ctx.outLayout = artifacts.preparedLayout(
            config.format, kWidth, config.sliceC, 0.5,
            AddressMap::kFeatureOutBase, out_mask);
        return ctx;
    }
};

TEST_F(TinyFixture, WeightStreamIsExact)
{
    AccelConfig config = makeGcnax();
    LayerContext ctx = makeContext(config, 0.0);
    LayerEngine engine(config, ctx);
    const LayerResult result = engine.run(ExecutionMode::Fast);
    // W is 64 x 64 x 4B = 16 KB = 256 lines, read exactly once.
    EXPECT_EQ(result.traffic.classLines(TrafficClass::Weight),
              16u * 1024 / 64);
}

TEST_F(TinyFixture, OffChipTrafficSumsEverySource)
{
    // One source per traffic class: a timing DRAM read, a functional
    // fill of the shared cache, a psum-bank fill and a fast-mode
    // stream. The layer totals and the roofline snapshot both read
    // this one sum.
    AccelConfig config = makeAwbGcn();
    LayerContext ctx = makeContext(config, 0.0);
    EngineContext ec(config, ctx);
    ASSERT_NE(ec.psumBuffer, nullptr);
    ec.dram.access(
        MemRequest{1 << 20, MemOp::Read, TrafficClass::Topology},
        nullptr);
    ec.events.run();
    ec.cache.accessRunFunctional(0, 1, MemOp::Read,
                                 TrafficClass::FeatureIn);
    ec.psumBuffer->accessRunFunctional(0, 1, MemOp::Read,
                                       TrafficClass::PartialSum);
    ec.fastStreamTraffic.add(MemOp::Read, TrafficClass::Weight, 3);

    const TrafficCounters total = ec.offChipTraffic();
    EXPECT_EQ(total.classLines(TrafficClass::Topology), 1u);
    EXPECT_EQ(total.classLines(TrafficClass::FeatureIn), 1u);
    EXPECT_EQ(total.classLines(TrafficClass::PartialSum), 1u);
    EXPECT_EQ(total.classLines(TrafficClass::Weight), 3u);
    EXPECT_EQ(total.totalLines(), 6u);
    EXPECT_EQ(ec.snapshot().dramLines, total.totalLines());
}

TEST_F(TinyFixture, ResidualStreamsAreExact)
{
    AccelConfig config = makeGcnax();
    LayerContext ctx = makeContext(config, 0.0);
    LayerEngine engine(config, ctx);
    const LayerResult result = engine.run(ExecutionMode::Fast);
    // S^l read + S^{l+1} write + X^{l+1} write, all dense 64-wide
    // rows of 4 lines each; everything fits one tile.
    const std::uint64_t row_lines = kWidth * 4 / 64;
    EXPECT_EQ(
        result.traffic.writeLines[static_cast<int>(
            TrafficClass::FeatureOut)],
        kN * row_lines * 2); // S write + dense X write
}

TEST_F(TinyFixture, DenseAggregationReadsMatchEdgeCount)
{
    AccelConfig config = makeGcnax();
    LayerContext ctx = makeContext(config, 0.0);
    LayerEngine engine(config, ctx);
    const LayerResult result = engine.run(ExecutionMode::Fast);
    // Features: cold cache, 8 vertices of 4 lines each are the
    // compulsory fills; the path graph's 22 edge visits (14 directed
    // + 8 self loops) hit after the first touch. S^l reads are
    // streamed, adding 8 rows x 4 lines.
    const std::uint64_t row_lines = kWidth * 4 / 64;
    EXPECT_EQ(result.traffic.readLines[static_cast<int>(
                  TrafficClass::FeatureIn)],
              kN * row_lines /* compulsory */ +
                  kN * row_lines /* S^l stream */);
    // Cache accesses = per-edge row touches.
    EXPECT_EQ(result.cacheAccesses,
              graph.numEdges() * row_lines);
}

TEST_F(TinyFixture, TopologyBytesMatchEdgeFormat)
{
    AccelConfig config = makeGcnax();
    LayerContext ctx = makeContext(config, 0.0);
    LayerEngine engine(config, ctx);
    const LayerResult result = engine.run(ExecutionMode::Fast);
    // 22 CSR entries x 8B topology = 176 packed bytes read in
    // per-vertex runs: at most one line per vertex plus straddles
    // where a run crosses a line boundary (one here).
    EXPECT_GE(result.traffic.classLines(TrafficClass::Topology),
              divCeil(graph.numEdges() * 8, 64));
    EXPECT_LE(result.traffic.classLines(TrafficClass::Topology),
              static_cast<std::uint64_t>(kN) + 2);
}

TEST_F(TinyFixture, BeicsrWritesOnlyOccupiedLines)
{
    AccelConfig config = makeSgcn();
    config.sac = false;
    LayerContext ctx = makeContext(config, 0.5);
    LayerEngine engine(config, ctx);
    const LayerResult result = engine.run(ExecutionMode::Fast);
    // X^{l+1} writes: sum over vertices of the compressed row lines.
    std::uint64_t expected_x = 0;
    for (VertexId v = 0; v < kN; ++v)
        expected_x += ctx.outLayout->planRowWrite(v).totalLines();
    const std::uint64_t s_lines = kN * (kWidth * 4 / 64);
    EXPECT_EQ(result.traffic.writeLines[static_cast<int>(
                  TrafficClass::FeatureOut)],
              expected_x + s_lines);
}

TEST_F(TinyFixture, MacCountsMatchOccupancy)
{
    AccelConfig config = makeSgcn();
    config.sac = false;
    LayerContext ctx = makeContext(config, 0.5);
    LayerEngine engine(config, ctx);
    const LayerResult result = engine.run(ExecutionMode::Fast);
    // Aggregation MACs: one per non-zero value fetched per edge.
    std::uint64_t agg_macs = 0;
    for (VertexId v = 0; v < kN; ++v) {
        for (VertexId u : graph.neighbors(v))
            agg_macs += ctx.inMask->rowNnz(u);
    }
    // Combination MACs: dense GEMM.
    const std::uint64_t comb_macs =
        static_cast<std::uint64_t>(kN) * kWidth * kWidth;
    EXPECT_EQ(result.macs, agg_macs + comb_macs);
}

// ---------------------------------------------------------------------
// DAVC effectiveness
// ---------------------------------------------------------------------

TEST(Davc, PinningHelpsHubTraffic)
{
    // A hubby graph where 30% of edges hit few vertices: EnGN's
    // DAVC should raise the hit rate over the same design without
    // it.
    ClusteredGraphParams params;
    params.vertices = 8192;
    params.avgDegree = 12.0;
    params.hubFraction = 0.3;
    params.localityFraction = 0.3;
    params.seed = 77;
    Dataset dataset{datasetByAbbrev("GH"), clusteredGraph(params), 128,
                    1.0};

    NetworkSpec net;
    RunOptions opts;
    opts.sampledIntermediateLayers = 2;
    opts.includeInputLayer = false;

    AccelConfig with_davc = makeEngn();
    AccelConfig without = makeEngn();
    without.davc = false;

    const RunResult a = runNetwork(with_davc, dataset, net, opts);
    const RunResult b = runNetwork(without, dataset, net, opts);
    EXPECT_GT(a.cacheHitRate(), b.cacheHitRate());
    EXPECT_LE(a.total.traffic.totalLines(),
              b.total.traffic.totalLines());
}

// ---------------------------------------------------------------------
// First-layer CSR input accounting
// ---------------------------------------------------------------------

TEST(FirstLayer, CsrInputBytesMatchNnz)
{
    Dataset cora = instantiateDataset(datasetByAbbrev("CR"), 0.08);
    NetworkSpec net;
    LayerContext ctx =
        makeInputLayer(cora, cora.graph, makeSgcn(), net);
    ASSERT_EQ(ctx.inLayout->kind(), FormatKind::Csr);
    // The whole input matrix read row by row costs about
    // nnz * 8B / 64 lines plus <= 2 pointer/misalignment lines/row.
    std::uint64_t lines = 0;
    for (VertexId v = 0; v < cora.graph.numVertices(); ++v)
        lines += ctx.inLayout->planRowRead(v).totalLines();
    const std::uint64_t nnz = ctx.inMask->totalNnz();
    EXPECT_GE(lines, nnz * 8 / 64);
    EXPECT_LE(lines, nnz * 8 / 64 +
                         3ull * cora.graph.numVertices());
}

} // namespace
} // namespace sgcn
