/**
 * @file
 * End-to-end functional verification: a deep residual GCN executed
 * entirely through SGCN's compressed pipeline — sparse aggregator
 * consuming BEICSR rows, dense combination, residual add, and the
 * ReLU-fused compressor producing the next layer's BEICSR — must
 * reproduce the dense reference forward pass exactly.
 *
 * This is the "correctness" half of the paper's claim: compression
 * changes the memory behaviour (SV), never the numerics.
 */

#include <gtest/gtest.h>

#include "core/beicsr.hh"
#include "core/compressor.hh"
#include "core/sparse_aggregator.hh"
#include "gcn/reference.hh"
#include "graph/generators.hh"

namespace sgcn
{
namespace
{

/** Compressed feature matrix: one BEICSR row image per vertex. */
using CompressedMatrix = std::vector<std::vector<std::uint8_t>>;

CompressedMatrix
compress(const DenseMatrix &matrix, std::uint32_t slice)
{
    CompressedMatrix rows;
    rows.reserve(matrix.rows());
    for (std::uint32_t r = 0; r < matrix.rows(); ++r)
        rows.push_back(encodeBeicsrRow(matrix.row(r), matrix.cols(),
                                       slice));
    return rows;
}

/**
 * One full SGCN layer over compressed features (SV-F):
 *  - the sparse aggregator accumulates BEICSR neighbour rows,
 *  - the systolic combination is a dense GEMM on the aggregate,
 *  - output registers start from S^l (residual),
 *  - the compressor applies ReLU and emits the next BEICSR matrix.
 * Returns the compressed X^{l+1}; @p s_state is updated to S^{l+1}.
 */
CompressedMatrix
sgcnLayer(const CsrGraph &graph, const CompressedMatrix &x_compressed,
          std::uint32_t width, std::uint32_t slice,
          const DenseMatrix &weights, DenseMatrix &s_state)
{
    const VertexId n = graph.numVertices();

    // Aggregation phase: per destination vertex, accumulate
    // compressed neighbour rows scaled by the edge weight.
    DenseMatrix aggregated(n, width);
    SparseAggregator engine(width, slice);
    for (VertexId v = 0; v < n; ++v) {
        engine.reset();
        for (VertexId u : graph.neighbors(v)) {
            engine.accumulate(x_compressed[u],
                              gcnEdgeWeight(graph, v, u));
        }
        for (std::uint32_t c = 0; c < width; ++c)
            aggregated.at(v, c) = engine.result()[c];
    }

    // Combination + residual + compression.
    DenseMatrix product = gemm(aggregated, weights);
    addInPlace(product, s_state);
    s_state = product;

    CompressedMatrix next;
    next.reserve(n);
    Compressor compressor(width, slice);
    for (VertexId v = 0; v < n; ++v) {
        compressor.reset();
        for (std::uint32_t c = 0; c < width; ++c)
            compressor.push(product.at(v, c));
        next.push_back(compressor.takeRow());
    }
    return next;
}

DenseMatrix
decompress(const CompressedMatrix &rows, std::uint32_t width,
           std::uint32_t slice)
{
    DenseMatrix matrix(static_cast<std::uint32_t>(rows.size()), width);
    for (std::uint32_t r = 0; r < rows.size(); ++r) {
        const auto decoded = decodeBeicsrRow(rows[r], width, slice);
        for (std::uint32_t c = 0; c < width; ++c)
            matrix.at(r, c) = decoded[c];
    }
    return matrix;
}

class E2eFunctional
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(E2eFunctional, CompressedPipelineMatchesDenseReference)
{
    const auto [layers, slice] = GetParam();
    const std::uint32_t width = 64;
    const VertexId n = 96;

    CsrGraph graph = clusteredGraph(
        {.vertices = n, .avgDegree = 6.0, .seed = 1234});
    Rng rng(5678);
    NetworkSpec net;
    net.layers = layers;
    net.hidden = width;

    // Initial state: X^1 post-ReLU features, S^1 = X^1.
    LayerState reference;
    reference.x = generateFeatures(n, width, 0.4, rng);
    reference.s = reference.x;

    CompressedMatrix compressed = compress(reference.x, slice);
    DenseMatrix s_state = reference.s;

    for (unsigned layer = 0; layer < layers; ++layer) {
        DenseMatrix weights = randomWeights(width, width, rng);
        reference = forwardLayer(graph, reference, weights, net);
        compressed = sgcnLayer(graph, compressed, width, slice,
                               weights, s_state);

        const DenseMatrix ours = decompress(compressed, width, slice);
        // Same operations in the same order: only float rounding in
        // the weighted accumulation differs between code paths.
        EXPECT_LT(ours.maxAbsDiff(reference.x), 1e-3)
            << "layer " << layer;
        // Sparsity should behave like the reference's.
        EXPECT_NEAR(ours.sparsity(), reference.x.sparsity(), 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(
    DepthAndSlice, E2eFunctional,
    ::testing::Combine(::testing::Values(1u, 4u, 8u),
                       ::testing::Values(16u, 48u, 64u)),
    [](const auto &info) {
        return "L" + std::to_string(std::get<0>(info.param)) + "_C" +
               std::to_string(std::get<1>(info.param));
    });

TEST(E2eFunctionalExtra, GinAggregationThroughPipeline)
{
    // The sparse aggregator also serves GIN (weight 1.0 per edge).
    const std::uint32_t width = 32;
    CsrGraph graph = clusteredGraph(
        {.vertices = 48, .avgDegree = 5.0, .seed = 11});
    Rng rng(13);
    DenseMatrix x = generateFeatures(48, width, 0.5, rng);
    const CompressedMatrix compressed = compress(x, 16);

    DenseMatrix expected = aggregate(graph, x, AggKind::Gin);
    SparseAggregator engine(width, 16);
    for (VertexId v = 0; v < 48; ++v) {
        engine.reset();
        for (VertexId u : graph.neighbors(v))
            engine.accumulate(compressed[u], 1.0f);
        for (std::uint32_t c = 0; c < width; ++c)
            ASSERT_NEAR(engine.result()[c], expected.at(v, c), 1e-4);
    }
}

TEST(E2eFunctionalExtra, SparsityRisesThroughDepth)
{
    // Running the real pipeline deep enough shows the paper's core
    // observation (SII-A) end to end on actual values.
    const std::uint32_t width = 64;
    CsrGraph graph = clusteredGraph(
        {.vertices = 128, .avgDegree = 6.0, .seed = 17});
    Rng rng(19);
    NetworkSpec net;
    net.layers = 10;
    net.hidden = width;

    LayerState state;
    state.x = generateFeatures(128, width, 0.0, rng);
    state.s = state.x;
    CompressedMatrix compressed = compress(state.x, 32);
    DenseMatrix s_state = state.s;
    double late_sparsity = 0.0;
    for (unsigned layer = 0; layer < 10; ++layer) {
        DenseMatrix weights = randomWeights(width, width, rng);
        compressed =
            sgcnLayer(graph, compressed, width, 32, weights, s_state);
        late_sparsity =
            decompress(compressed, width, 32).sparsity();
    }
    EXPECT_GT(late_sparsity, 0.25);
}

} // namespace
} // namespace sgcn
