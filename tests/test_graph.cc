/**
 * @file
 * Unit tests for the graph substrate: CSR construction,
 * normalization, the clustered generator's structural statistics,
 * tiling views, reordering, and the dataset registry.
 */

#include <gtest/gtest.h>

#include <set>

#include "gcn/reference.hh"
#include "graph/csr_graph.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "graph/partition.hh"
#include "graph/reorder.hh"

namespace sgcn
{
namespace
{

CsrGraph
triangle()
{
    return CsrGraph(3, {{0, 1}, {1, 2}, {0, 2}});
}

TEST(CsrGraph, BuildsUndirectedWithSelfLoops)
{
    CsrGraph graph = triangle();
    EXPECT_EQ(graph.numVertices(), 3u);
    // 3 undirected edges -> 6 directed + 3 self loops.
    EXPECT_EQ(graph.numEdges(), 9u);
    EXPECT_EQ(graph.numEdgesNoSelfLoops(), 6u);
    for (VertexId v = 0; v < 3; ++v)
        EXPECT_EQ(graph.degree(v), 3u);
}

TEST(CsrGraph, NeighborsSortedAndComplete)
{
    CsrGraph graph = triangle();
    const auto nbrs = graph.neighbors(1);
    ASSERT_EQ(nbrs.size(), 3u);
    EXPECT_EQ(nbrs[0], 0u);
    EXPECT_EQ(nbrs[1], 1u);
    EXPECT_EQ(nbrs[2], 2u);
}

TEST(CsrGraph, DropsDuplicateEdges)
{
    CsrGraph graph(2, {{0, 1}, {0, 1}, {1, 0}});
    // one undirected edge -> 2 directed + 2 self loops.
    EXPECT_EQ(graph.numEdges(), 4u);
}

TEST(CsrGraph, SymmetricNormalization)
{
    CsrGraph graph = triangle();
    // All degrees equal 3 (with self loop), so every weight is 1/3.
    for (VertexId v = 0; v < 3; ++v) {
        for (VertexId u : graph.neighbors(v))
            EXPECT_NEAR(gcnEdgeWeight(graph, v, u), 1.0 / 3.0, 1e-6);
    }
}

TEST(CsrGraph, NormalizationFormula)
{
    // w(v, u) = 1/sqrt(deg(v) * deg(u)) with self loops counted.
    CsrGraph graph = clusteredGraph({.vertices = 256, .seed = 3});
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        for (VertexId u : graph.neighbors(v)) {
            const double expected =
                1.0 / std::sqrt(static_cast<double>(graph.degree(v)) *
                                graph.degree(u));
            EXPECT_NEAR(gcnEdgeWeight(graph, v, u), expected, 1e-6);
        }
    }
}

TEST(CsrGraph, PermutedPreservesStructure)
{
    CsrGraph graph = clusteredGraph({.vertices = 128, .seed = 5});
    std::vector<VertexId> perm(128);
    for (VertexId v = 0; v < 128; ++v)
        perm[v] = 127 - v; // reversal
    CsrGraph permuted = graph.permuted(perm);
    EXPECT_EQ(permuted.numEdges(), graph.numEdges());
    for (VertexId v = 0; v < 128; ++v) {
        EXPECT_EQ(permuted.degree(perm[v]), graph.degree(v));
        std::set<VertexId> expected;
        for (VertexId u : graph.neighbors(v))
            expected.insert(perm[u]);
        std::set<VertexId> actual;
        for (VertexId u : permuted.neighbors(perm[v]))
            actual.insert(u);
        EXPECT_EQ(expected, actual);
    }
}

TEST(CsrGraph, DegreeOrderSortsDescending)
{
    CsrGraph graph = clusteredGraph(
        {.vertices = 512, .hubFraction = 0.3, .seed = 7});
    const auto order = graph.verticesByDegree();
    for (std::size_t i = 1; i < order.size(); ++i)
        EXPECT_GE(graph.degree(order[i - 1]), graph.degree(order[i]));
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

TEST(Generators, ClusteredHitsTargetDegree)
{
    ClusteredGraphParams params;
    params.vertices = 4096;
    params.avgDegree = 12.0;
    params.seed = 11;
    CsrGraph graph = clusteredGraph(params);
    // Directed non-self-loop entries per vertex near the target.
    const double avg = static_cast<double>(
                           graph.numEdgesNoSelfLoops()) /
                       graph.numVertices();
    EXPECT_NEAR(avg, 12.0, 1.5);
}

TEST(Generators, ClusteredIsLocal)
{
    ClusteredGraphParams params;
    params.vertices = 4096;
    params.avgDegree = 10.0;
    params.localityFraction = 0.9;
    params.localityDistance = 64.0;
    params.seed = 13;
    CsrGraph clustered = clusteredGraph(params);
    params.localityFraction = 0.0;
    params.hubFraction = 0.0;
    CsrGraph random = clusteredGraph(params);
    // Fig. 7b: community graphs cluster near the diagonal.
    EXPECT_GT(clustered.localityScore(256),
              random.localityScore(256) * 3);
}

TEST(Generators, HubsSkewDegree)
{
    ClusteredGraphParams hubby;
    hubby.vertices = 4096;
    hubby.avgDegree = 10.0;
    hubby.hubFraction = 0.3;
    hubby.seed = 17;
    ClusteredGraphParams flat = hubby;
    flat.hubFraction = 0.0;
    EXPECT_GT(clusteredGraph(hubby).maxDegree(),
              clusteredGraph(flat).maxDegree() * 3);
}

TEST(Generators, Deterministic)
{
    ClusteredGraphParams params;
    params.vertices = 512;
    params.seed = 31;
    CsrGraph a = clusteredGraph(params);
    CsrGraph b = clusteredGraph(params);
    EXPECT_EQ(a.columnIndices(), b.columnIndices());
    EXPECT_EQ(a.rowPointers(), b.rowPointers());
}

// ---------------------------------------------------------------------
// Tiling
// ---------------------------------------------------------------------

TEST(Partition, TilesCoverAllEdgesExactlyOnce)
{
    CsrGraph graph = clusteredGraph({.vertices = 777, .seed = 37});
    TiledGraphView view(graph, 100, 128);
    EdgeId covered = 0;
    for (unsigned t = 0; t < view.numDstTiles(); ++t) {
        for (VertexId v = view.dstTileBegin(t); v < view.dstTileEnd(t);
             ++v) {
            for (unsigned c = 0; c < view.numSrcTiles(); ++c) {
                const auto nbrs = view.tileNeighbors(v, c);
                covered += nbrs.size();
                // Every neighbour lies inside the src tile.
                for (VertexId u : nbrs) {
                    EXPECT_GE(u, c * 128u);
                    EXPECT_LT(u, (c + 1) * 128u);
                }
            }
        }
    }
    EXPECT_EQ(covered, graph.numEdges());
}

TEST(Partition, SingleTileDegenerate)
{
    CsrGraph graph = triangle();
    TiledGraphView view(graph, 0, 0);
    EXPECT_EQ(view.numDstTiles(), 1u);
    EXPECT_EQ(view.numSrcTiles(), 1u);
    EXPECT_EQ(view.tileNeighbors(0, 0).size(), graph.degree(0));
}

TEST(Partition, SrcSpanScalesWithCache)
{
    const VertexId small =
        chooseSrcTileSpan(256 * 1024, 200.0, 1 << 20);
    const VertexId large =
        chooseSrcTileSpan(1024 * 1024, 200.0, 1 << 20);
    EXPECT_GT(large, small);
    EXPECT_NEAR(static_cast<double>(large) / small, 4.0, 0.5);
}

TEST(Partition, SrcSpanDenserFormatsGetSmallerTiles)
{
    // Denser expected bytes/vertex -> smaller tile (SV-C).
    const VertexId dense =
        chooseSrcTileSpan(512 * 1024, 384.0, 1 << 20);
    const VertexId sparse =
        chooseSrcTileSpan(512 * 1024, 204.0, 1 << 20);
    EXPECT_LT(dense, sparse);
}

// ---------------------------------------------------------------------
// Reordering
// ---------------------------------------------------------------------

TEST(Reorder, BfsIslandIsPermutation)
{
    CsrGraph graph = clusteredGraph({.vertices = 1000, .seed = 43});
    const auto perm = bfsIslandOrder(graph);
    EXPECT_TRUE(isPermutation(perm));
}

TEST(Reorder, IslandizationRestoresLocality)
{
    // Destroy a clustered graph's locality with a pseudo-random
    // shuffle; BFS islandization should win most of it back (the
    // I-GCN claim).
    CsrGraph graph = clusteredGraph({.vertices = 2048,
                                     .avgDegree = 8.0,
                                     .localityFraction = 0.98,
                                     .localityDistance = 16.0,
                                     .hubFraction = 0.0,
                                     .seed = 53});
    std::vector<VertexId> shuffle(2048);
    for (VertexId v = 0; v < 2048; ++v)
        shuffle[v] = (v * 1237u + 17u) % 2048u; // bijection (odd mult)
    ASSERT_TRUE(isPermutation(shuffle));
    CsrGraph shuffled = graph.permuted(shuffle);
    CsrGraph restored = shuffled.permuted(bfsIslandOrder(shuffled));

    EXPECT_LT(shuffled.localityScore(256), 0.35);
    EXPECT_GT(restored.localityScore(256),
              shuffled.localityScore(256) * 1.3);
}

// ---------------------------------------------------------------------
// Dataset registry
// ---------------------------------------------------------------------

TEST(Datasets, NineInTableOrder)
{
    const auto &all = allDatasets();
    ASSERT_EQ(all.size(), 9u);
    EXPECT_STREQ(all[0].abbrev, "CR");
    EXPECT_STREQ(all[4].abbrev, "RD");
    EXPECT_STREQ(all[8].abbrev, "GH");
}

TEST(Datasets, SparsityOrderMatchesFig3)
{
    const auto sorted = datasetsBySparsity();
    // Fig. 3 order: GH FK NL RD DB YP CR CS PM.
    const char *expected[] = {"GH", "FK", "NL", "RD", "DB",
                              "YP", "CR", "CS", "PM"};
    for (std::size_t i = 0; i < sorted.size(); ++i)
        EXPECT_STREQ(sorted[i].abbrev, expected[i]);
}

TEST(Datasets, LookupByAbbrev)
{
    EXPECT_STREQ(datasetByAbbrev("PM").name, "PubMed");
    EXPECT_EQ(datasetByAbbrev("NL").inputFeatures, 61278u);
    EXPECT_TRUE(datasetByAbbrev("NL").oneHotInput);
}

TEST(Datasets, InstantiationRespectsCaps)
{
    Dataset reddit = instantiateDataset(datasetByAbbrev("RD"));
    EXPECT_LE(reddit.graph.numVertices(), kDatasetVertexCap);
    // Degree capped but still the largest of the suite.
    EXPECT_LE(reddit.graph.avgDegree(), 48.0 + 2.0);

    Dataset cora = instantiateDataset(datasetByAbbrev("CR"));
    // Cora is smaller than the cap: full size.
    EXPECT_EQ(cora.graph.numVertices(), 2708u);

    Dataset nell = instantiateDataset(datasetByAbbrev("NL"));
    EXPECT_LE(nell.inputWidth, kInputWidthCap);
}

TEST(Datasets, ScaleRaisesCaps)
{
    Dataset small = instantiateDataset(datasetByAbbrev("PM"), 1.0);
    Dataset large = instantiateDataset(datasetByAbbrev("PM"), 2.0);
    EXPECT_GT(large.graph.numVertices(), small.graph.numVertices());
}

TEST(Datasets, DegreePreservedUnderScaling)
{
    const DatasetSpec &spec = datasetByAbbrev("FK");
    Dataset dataset = instantiateDataset(spec);
    const double target =
        std::min(spec.fullAvgDegree(), spec.degreeCap);
    EXPECT_NEAR(static_cast<double>(
                    dataset.graph.numEdgesNoSelfLoops()) /
                    dataset.graph.numVertices(),
                target, target * 0.2);
}

TEST(Datasets, CitationGraphsAreClustered)
{
    Dataset dblp = instantiateDataset(datasetByAbbrev("DB"));
    Dataset github = instantiateDataset(datasetByAbbrev("GH"));
    const VertexId window = dblp.graph.numVertices() / 16;
    EXPECT_GT(dblp.graph.localityScore(window),
              github.graph.localityScore(window));
}

} // namespace
} // namespace sgcn
