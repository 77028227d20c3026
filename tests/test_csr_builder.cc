/**
 * @file
 * Tests for the million-node substrate: the streaming two-pass
 * CsrBuilder (bit-identity with the edge-list constructor and with
 * a from-first-principles global-sort reference, under any chunking
 * or fan-out), the byte-width-packed column-index array at its
 * width boundaries, the parallel bfsIslandOrder path, and the
 * chunked generator's jobs-invariance. Carries the "thread" CTest
 * label: the parallel builder/reorder paths must stay race-free
 * under TSan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/csr_builder.hh"
#include "graph/csr_graph.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "graph/reorder.hh"
#include "sim/rng.hh"

namespace sgcn
{
namespace
{

/** Random edge list over n vertices (may contain dups/self loops). */
std::vector<EdgePair>
randomEdges(VertexId n, std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<EdgePair> edges;
    edges.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        edges.emplace_back(static_cast<VertexId>(rng.uniformInt(n)),
                           static_cast<VertexId>(rng.uniformInt(n)));
    }
    return edges;
}

/**
 * From-first-principles reference: materialize both directions plus
 * self loops, globally sort, unique, group by row — the pre-builder
 * construction the streaming path must reproduce bit for bit.
 */
void
referenceCsr(VertexId n, const std::vector<EdgePair> &edges,
             std::vector<EdgeId> &row_ptr,
             std::vector<VertexId> &col_idx)
{
    std::vector<EdgePair> directed;
    for (const auto &[src, dst] : edges) {
        if (src == dst)
            continue;
        directed.emplace_back(src, dst);
        directed.emplace_back(dst, src);
    }
    for (VertexId v = 0; v < n; ++v)
        directed.emplace_back(v, v);
    std::sort(directed.begin(), directed.end());
    directed.erase(std::unique(directed.begin(), directed.end()),
                   directed.end());
    row_ptr.assign(n + 1, 0);
    col_idx.clear();
    for (const auto &[src, dst] : directed) {
        ++row_ptr[src + 1];
        col_idx.push_back(dst);
    }
    for (VertexId v = 0; v < n; ++v)
        row_ptr[v + 1] += row_ptr[v];
}

void
expectGraphsIdentical(const CsrGraph &a, const CsrGraph &b)
{
    ASSERT_EQ(a.numVertices(), b.numVertices());
    ASSERT_EQ(a.numEdges(), b.numEdges());
    EXPECT_EQ(a.contentFingerprint(), b.contentFingerprint());
    EXPECT_EQ(a.rowPointers(), b.rowPointers());
    EXPECT_TRUE(a.columnIndices() == b.columnIndices());
}

TEST(CsrBuilder, MatchesGlobalSortReference)
{
    for (std::uint64_t seed : {1u, 7u, 42u}) {
        const VertexId n = 97;
        const auto edges = randomEdges(n, 600, seed);
        const CsrGraph graph(n, edges);

        std::vector<EdgeId> row_ptr;
        std::vector<VertexId> col_idx;
        referenceCsr(n, edges, row_ptr, col_idx);
        ASSERT_EQ(graph.rowPointers(), row_ptr);
        const PackedIndexArray &cols = graph.columnIndices();
        ASSERT_TRUE(std::equal(cols.begin(), cols.end(),
                               col_idx.begin(), col_idx.end()));
    }
}

TEST(CsrBuilder, StreamingChunksMatchEdgeListCtor)
{
    const VertexId n = 211;
    const auto edges = randomEdges(n, 1500, 3);
    const CsrGraph whole(n, edges);

    // Feed the same multiset in awkward chunk sizes.
    for (std::size_t chunk : {1ul, 7ul, 256ul, 10000ul}) {
        CsrBuilder builder(n);
        for (std::size_t at = 0; at < edges.size(); at += chunk) {
            const std::size_t len =
                std::min(chunk, edges.size() - at);
            builder.countEdges({edges.data() + at, len});
        }
        builder.finishCounting();
        for (std::size_t at = 0; at < edges.size(); at += chunk) {
            const std::size_t len =
                std::min(chunk, edges.size() - at);
            builder.addEdges({edges.data() + at, len});
        }
        const CsrGraph streamed(std::move(builder));
        expectGraphsIdentical(streamed, whole);
    }
}

TEST(CsrBuilder, ScatterOrderInvariant)
{
    // Reversed second-pass order must yield the same graph: the
    // per-row sort+dedup canonicalizes whatever order slots fill in.
    const VertexId n = 64;
    const auto edges = randomEdges(n, 400, 11);
    const CsrGraph forward(n, edges);

    CsrBuilder builder(n, true, true, 4);
    builder.countEdges(edges);
    builder.finishCounting();
    for (auto it = edges.rbegin(); it != edges.rend(); ++it)
        builder.addEdge(it->first, it->second);
    const CsrGraph reversed(std::move(builder));
    expectGraphsIdentical(reversed, forward);
}

TEST(CsrBuilder, ParallelJobsMatchSerial)
{
    const VertexId n = 500;
    const auto edges = randomEdges(n, 4000, 5);
    CsrBuilder serial(n, true, true, 1);
    serial.countEdges(edges);
    serial.finishCounting();
    serial.addEdges(edges);
    const CsrGraph a(std::move(serial));

    CsrBuilder parallel(n, true, true, 8);
    parallel.countEdges(edges);
    parallel.finishCounting();
    parallel.addEdges(edges);
    const CsrGraph b(std::move(parallel));
    expectGraphsIdentical(a, b);
}

TEST(PackedIndexArray, WidthBoundaries)
{
    EXPECT_EQ(PackedIndexArray::widthFor(1), 1u);
    EXPECT_EQ(PackedIndexArray::widthFor(256), 1u);
    EXPECT_EQ(PackedIndexArray::widthFor(257), 2u);
    EXPECT_EQ(PackedIndexArray::widthFor(65536), 2u);
    EXPECT_EQ(PackedIndexArray::widthFor(65537), 3u);
    EXPECT_EQ(PackedIndexArray::widthFor(1u << 24), 3u);
    EXPECT_EQ(PackedIndexArray::widthFor((1u << 24) + 1), 4u);
    EXPECT_EQ(PackedIndexArray::widthFor(0x100000000ull), 4u);
}

TEST(PackedIndexArray, RoundTripAtEveryWidth)
{
    // Values that stress each byte of each width, incl. the 65536
    // edge the 2->3 byte transition guards.
    for (unsigned width : {1u, 2u, 3u, 4u}) {
        const std::uint32_t max =
            width == 4 ? 0xffffffffu : ((1u << (8 * width)) - 1);
        std::vector<std::uint32_t> values = {
            0u, 1u, 0x7fu, 0xffu & max, max / 2, max - 1, max};
        if (width >= 3)
            values.insert(values.end(), {65535u, 65536u, 65537u});
        PackedIndexArray packed(values.size(), width);
        for (std::size_t i = 0; i < values.size(); ++i)
            packed.set(i, values[i]);
        ASSERT_EQ(packed.size(), values.size());
        ASSERT_EQ(packed.byteSize(), values.size() * width);
        for (std::size_t i = 0; i < values.size(); ++i)
            EXPECT_EQ(packed[i], values[i]) << "width " << width;
        EXPECT_TRUE(std::equal(values.begin(), values.end(),
                               packed.begin(), packed.end()));
    }
}

TEST(PackedIndexArray, EqualityIsWidthAgnostic)
{
    PackedIndexArray narrow(3, 1);
    PackedIndexArray wide(3, 4);
    for (std::size_t i = 0; i < 3; ++i) {
        narrow.set(i, i + 1);
        wide.set(i, i + 1);
    }
    EXPECT_TRUE(narrow == wide);
    wide.set(2, 9);
    EXPECT_FALSE(narrow == wide);
}

TEST(PackedIndexArray, GraphAtWidthBoundaryDecodesCorrectly)
{
    // 65537 vertices forces 3-byte indices; a ring graph checks the
    // decode path end to end (every neighbour value appears).
    const VertexId n = 65537;
    CsrBuilder builder(n, true, true, 0);
    const auto each_pass = [&](auto &&emit) {
        for (VertexId v = 0; v < n; ++v)
            emit(v, static_cast<VertexId>((v + 1) % n));
    };
    each_pass([&](VertexId s, VertexId d) { builder.countEdge(s, d); });
    builder.finishCounting();
    each_pass([&](VertexId s, VertexId d) { builder.addEdge(s, d); });
    const CsrGraph graph(std::move(builder));
    EXPECT_EQ(graph.columnIndices().width(), 3u);
    EXPECT_EQ(graph.numEdges(), static_cast<EdgeId>(n) * 3);
    const auto nbrs = graph.neighbors(1);
    ASSERT_EQ(nbrs.size(), 3u);
    EXPECT_EQ(nbrs[0], 0u);
    EXPECT_EQ(nbrs[1], 1u);
    EXPECT_EQ(nbrs[2], 2u);
    const auto last = graph.neighbors(n - 1);
    ASSERT_EQ(last.size(), 3u);
    EXPECT_EQ(last[0], 0u);
    EXPECT_EQ(last[1], n - 2);
    EXPECT_EQ(last[2], n - 1);
}

TEST(Reorder, ParallelIslandOrderMatchesSerial)
{
    // Several disconnected communities => real per-island fan-out.
    const VertexId island = 40, islands = 7;
    const VertexId n = island * islands;
    std::vector<EdgePair> edges;
    Rng rng(13);
    for (VertexId k = 0; k < islands; ++k) {
        const VertexId base = k * island;
        for (unsigned e = 0; e < 150; ++e) {
            edges.emplace_back(
                base + static_cast<VertexId>(rng.uniformInt(island)),
                base + static_cast<VertexId>(rng.uniformInt(island)));
        }
    }
    const CsrGraph graph(n, edges);
    const auto serial = bfsIslandOrder(graph, 1);
    const auto parallel = bfsIslandOrder(graph, 8);
    EXPECT_TRUE(isPermutation(serial));
    EXPECT_EQ(serial, parallel);
}

TEST(Reorder, ParallelIslandOrderMatchesSerialOnClustered)
{
    ClusteredGraphParams params;
    params.vertices = 3000;
    params.avgDegree = 6.0;
    params.seed = 9;
    const CsrGraph graph = clusteredGraph(params);
    EXPECT_EQ(bfsIslandOrder(graph, 1), bfsIslandOrder(graph, 4));
}

TEST(Generators, ChunkedStreamIndependentOfJobs)
{
    ClusteredGraphParams params;
    params.vertices = 20000;
    params.avgDegree = 8.0;
    params.seed = 21;
    params.chunkedRng = true;

    params.jobs = 1;
    const CsrGraph serial = clusteredGraph(params);
    params.jobs = 8;
    const CsrGraph parallel = clusteredGraph(params);
    expectGraphsIdentical(serial, parallel);
    // > 1 chunk actually exercised (target draws > 2^16).
    EXPECT_GT(serial.numEdges(), 2u * 65536u);
}

TEST(Generators, LegacyStreamUnchangedByBuilderMigration)
{
    // The frozen Table II datasets replay the legacy single-Rng
    // stream through the builder; drawing the same stream into an
    // edge vector and using the edge-list ctor must agree exactly.
    ClusteredGraphParams params;
    params.vertices = 5000;
    params.avgDegree = 7.0;
    params.seed = 77;
    const CsrGraph streamed = clusteredGraph(params);

    // Re-draw with an independent implementation of the same stream.
    Rng rng(params.seed);
    const auto target = static_cast<EdgeId>(
        params.avgDegree * static_cast<double>(params.vertices) / 2.0);
    const auto hub_count = std::max<VertexId>(
        1, static_cast<VertexId>(params.hubSetFraction *
                                 static_cast<double>(params.vertices)));
    std::vector<VertexId> hubs(hub_count);
    for (VertexId h = 0; h < hub_count; ++h) {
        std::uint64_t key = params.seed ^ (0x9e3779b97f4a7c15ULL +
                                           h * 0x100000001b3ULL);
        hubs[h] = static_cast<VertexId>(Rng::splitMix64(key) %
                                        params.vertices);
    }
    std::vector<EdgePair> edges;
    for (EdgeId i = 0; i < target; ++i) {
        const auto src = static_cast<VertexId>(
            rng.uniformInt(params.vertices));
        VertexId dst;
        const double kind = rng.uniform();
        if (kind < params.hubFraction) {
            dst = hubs[rng.uniformInt(hub_count)];
        } else if (kind <
                   params.hubFraction + params.localityFraction) {
            const auto distance = static_cast<std::int64_t>(
                rng.geometric(params.localityDistance)) + 1;
            const bool negative = rng.bernoulli(0.5);
            const auto m =
                static_cast<std::int64_t>(params.vertices);
            std::int64_t r = (static_cast<std::int64_t>(src) +
                              (negative ? -distance : distance)) %
                             m;
            if (r < 0)
                r += m;
            dst = static_cast<VertexId>(r);
        } else {
            dst = static_cast<VertexId>(
                rng.uniformInt(params.vertices));
        }
        if (dst != src)
            edges.emplace_back(src, dst);
    }
    const CsrGraph reference(params.vertices, edges);
    expectGraphsIdentical(streamed, reference);
}

TEST(Datasets, SynthSpecParses)
{
    const DatasetSpec small = datasetByAbbrev("synth:5000");
    EXPECT_TRUE(small.synthetic);
    EXPECT_EQ(small.fullVertices, 5000u);
    EXPECT_EQ(std::string(small.abbrev), "synth:5000");

    const DatasetSpec suffixed = datasetByAbbrev("synth:200k");
    EXPECT_EQ(suffixed.fullVertices, 200000u);

    const DatasetSpec degree = datasetByAbbrev("synth:10k:deg12");
    EXPECT_EQ(degree.fullVertices, 10000u);
    EXPECT_NEAR(degree.fullAvgDegree(), 12.0, 0.01);

    const DatasetSpec million = datasetByAbbrev("synth:1M");
    EXPECT_EQ(million.fullVertices, 1000000u);
}

TEST(Datasets, SynthInstantiationIsUncapped)
{
    // 20k vertices > the scale-0.08 cap that would clamp a Table II
    // dataset; synth specs must ignore the cap.
    const Dataset dataset =
        instantiateDataset(datasetByAbbrev("synth:20k:deg6"), 0.08);
    EXPECT_EQ(dataset.graph.numVertices(), 20000u);
    EXPECT_EQ(dataset.vertexScale, 1.0);
    EXPECT_GT(dataset.buildMillis, 0.0);
    // Packed adjacency + derived weights stay far below the old
    // 12 B/edge materialized storage.
    EXPECT_LT(dataset.graph.adjacencyBytesPerEdge(), 6.0);
}

TEST(Graph, PermutedParallelMatchesSerial)
{
    ClusteredGraphParams params;
    params.vertices = 2500;
    params.avgDegree = 8.0;
    params.seed = 31;
    const CsrGraph graph = clusteredGraph(params);
    const auto perm = bfsIslandOrder(graph);
    const CsrGraph serial = graph.permuted(perm, 1);
    const CsrGraph parallel = graph.permuted(perm, 8);
    expectGraphsIdentical(serial, parallel);
}

} // namespace
} // namespace sgcn
