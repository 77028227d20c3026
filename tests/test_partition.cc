/**
 * @file
 * Multi-chip vertex partitioner invariants: the shards cover the
 * parent disjointly, every directed edge lands on exactly one chip,
 * the halo of a chip is exactly its cross-chip in-neighbour set, the
 * renumbered subgraphs carry the parent's edges verbatim, and the
 * edge-balanced policy actually balances skewed graphs better than
 * the contiguous cut.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "fixtures.hh"
#include "graph/partition.hh"

namespace sgcn
{
namespace
{

/** A star: every vertex attaches to hub 0, so row 0 owns almost all
 *  of the directed edges — the worst case for a contiguous cut. */
CsrGraph
starGraph(VertexId n)
{
    std::vector<EdgePair> edges;
    for (VertexId v = 1; v < n; ++v)
        edges.push_back({0, v});
    return CsrGraph(n, std::move(edges));
}

struct PartitionTest : ::testing::Test
{
    Dataset cora = testfx::cora();
    const CsrGraph &parent = cora.graph;
};

TEST_F(PartitionTest, ShardsCoverParentDisjointly)
{
    for (unsigned chips : {1u, 2u, 4u, 5u}) {
        for (PartitionPolicy policy : {PartitionPolicy::Contiguous,
                                       PartitionPolicy::EdgeBalanced}) {
            const GraphPartition partition(parent, chips, policy);
            ASSERT_EQ(partition.numChips(), chips);
            EXPECT_EQ(partition.numVertices(), parent.numVertices());

            VertexId cursor = 0;
            for (unsigned c = 0; c < chips; ++c) {
                const ChipShard &shard = partition.shard(c);
                EXPECT_EQ(shard.chip, c);
                EXPECT_EQ(shard.begin, cursor);
                EXPECT_LT(shard.begin, shard.end)
                    << "empty shard " << c;
                cursor = shard.end;
            }
            EXPECT_EQ(cursor, parent.numVertices());

            for (VertexId v = 0; v < parent.numVertices(); ++v) {
                const unsigned owner = partition.ownerOf(v);
                EXPECT_LE(partition.shard(owner).begin, v);
                EXPECT_LT(v, partition.shard(owner).end);
            }
        }
    }
}

TEST_F(PartitionTest, EveryEdgeOnExactlyOneChip)
{
    for (PartitionPolicy policy : {PartitionPolicy::Contiguous,
                                   PartitionPolicy::EdgeBalanced}) {
        const GraphPartition partition(parent, 4, policy);
        EdgeId total = 0;
        for (const ChipShard &shard : partition.shards()) {
            // The chip subgraph holds exactly the owned edges: halo
            // rows are empty (aggregation sources only).
            EXPECT_EQ(shard.graph->numEdges(), shard.ownedEdges);
            for (VertexId h = shard.ownedRows();
                 h < shard.graph->numVertices(); ++h) {
                EXPECT_EQ(shard.graph->degree(h), 0u);
            }
            total += shard.ownedEdges;
        }
        EXPECT_EQ(total, parent.numEdges());
    }
}

TEST_F(PartitionTest, SubgraphEdgesMatchParentRows)
{
    const GraphPartition partition(parent, 3,
                                   PartitionPolicy::EdgeBalanced);
    for (const ChipShard &shard : partition.shards()) {
        for (VertexId v = shard.begin; v < shard.end; ++v) {
            const VertexId local = shard.chipRowOf(v);
            EXPECT_EQ(local, v - shard.begin);
            const auto parent_nbrs = parent.neighbors(v);
            const auto chip_nbrs = shard.graph->neighbors(local);
            ASSERT_EQ(chip_nbrs.size(), parent_nbrs.size());
            for (std::size_t i = 0; i < parent_nbrs.size(); ++i) {
                // Neighbour ids map back through the chip
                // renumbering.
                EXPECT_EQ(chip_nbrs[i],
                          shard.chipRowOf(parent_nbrs[i]));
            }
        }
    }
}

TEST_F(PartitionTest, HaloIsExactlyTheCrossChipInNeighbourSet)
{
    for (unsigned chips : {2u, 4u}) {
        const GraphPartition partition(parent, chips,
                                       PartitionPolicy::EdgeBalanced);
        std::uint64_t halo_total = 0;
        for (const ChipShard &shard : partition.shards()) {
            std::set<VertexId> expected;
            for (VertexId v = shard.begin; v < shard.end; ++v) {
                for (VertexId u : parent.neighbors(v)) {
                    if (u < shard.begin || u >= shard.end)
                        expected.insert(u);
                }
            }
            const std::vector<VertexId> want(expected.begin(),
                                             expected.end());
            EXPECT_EQ(shard.halo, want);
            EXPECT_TRUE(std::is_sorted(shard.halo.begin(),
                                       shard.halo.end()));
            for (VertexId u : shard.halo)
                EXPECT_NE(partition.ownerOf(u), shard.chip);
            halo_total += shard.halo.size();
        }
        EXPECT_EQ(partition.totalHaloVertices(), halo_total);
    }
}

TEST_F(PartitionTest, EdgeBalancedBeatsContiguousOnSkew)
{
    const CsrGraph star = starGraph(256);
    const GraphPartition contiguous(star, 4,
                                    PartitionPolicy::Contiguous);
    const GraphPartition balanced(star, 4,
                                  PartitionPolicy::EdgeBalanced);
    // The contiguous cut lands the hub row plus a quarter of the
    // leaves on chip 0; the edge-balanced cut isolates the hub.
    EXPECT_LT(balanced.maxOwnedEdges(), contiguous.maxOwnedEdges());
}

TEST_F(PartitionTest, SingleChipIsTheWholeGraph)
{
    for (PartitionPolicy policy : {PartitionPolicy::Contiguous,
                                   PartitionPolicy::EdgeBalanced}) {
        const GraphPartition partition(parent, 1, policy);
        const ChipShard &shard = partition.shard(0);
        EXPECT_EQ(shard.begin, 0u);
        EXPECT_EQ(shard.end, parent.numVertices());
        EXPECT_TRUE(shard.halo.empty());
        EXPECT_EQ(shard.ownedEdges, parent.numEdges());
        EXPECT_EQ(shard.graph->numVertices(), parent.numVertices());
        EXPECT_EQ(shard.graph->numEdgesNoSelfLoops(),
                  parent.numEdgesNoSelfLoops());
        // The lone shard is the parent's topology itself.
        EXPECT_EQ(shard.graph->contentFingerprint(),
                  parent.contentFingerprint());
    }
}

TEST(PartitionPins, EdgeBalancedShardsArePinned)
{
    // Exact vertex, edge and self-loop counts and content
    // fingerprints of every shard of 1- and 3-chip edge-balanced
    // partitions. The fingerprint hashes the remapped columns in
    // order, so a shard whose rows change order or content fails
    // here even when every count holds.
    struct Pin
    {
        VertexId vertices;
        EdgeId edges;
        EdgeId selfLoops;
        std::pair<std::uint64_t, std::uint64_t> fingerprint;
    };
    struct Fixture
    {
        const char *abbrev;
        unsigned chips;
        std::vector<Pin> shards;
    };
    const Fixture fixtures[] = {
        {"CR", 1,
         {{1310, 6374, 1310,
           {0xde0eb6204a4751d5ULL, 0x08b65ad7c344858dULL}}}},
        {"CR", 3,
         {{662, 2129, 427, {0xa287b5df7787f051ULL, 0xc53bd3a816220475ULL}},
          {652, 2122, 436, {0xa7df3ec9511614c5ULL, 0x47b57645c35ebd55ULL}},
          {694, 2123, 447,
           {0x44f25de5b1b4c6edULL, 0x58f47e90c55ad515ULL}}}},
        {"PM", 1,
         {{1310, 7184, 1310,
           {0xe22a6473dc588f1fULL, 0xf1f1ebc56f71ee4fULL}}}},
        {"PM", 3,
         {{1033, 2394, 438, {0xfc4c86793689c72eULL, 0xbba0b26c99bb196aULL}},
          {1036, 2399, 434, {0xe023fc3095950403ULL, 0x38cdded8c9499ec3ULL}},
          {1040, 2391, 438,
           {0x0c05d8290fc647c1ULL, 0x38a9b16931938ff1ULL}}}},
    };
    for (const Fixture &fixture : fixtures) {
        const Dataset dataset = testfx::datasetFixture(fixture.abbrev);
        const GraphPartition partition(dataset.graph, fixture.chips,
                                       PartitionPolicy::EdgeBalanced);
        ASSERT_EQ(partition.numChips(), fixture.shards.size());
        for (const ChipShard &shard : partition.shards()) {
            SCOPED_TRACE(::testing::Message()
                         << fixture.abbrev << " chip " << shard.chip
                         << " of " << fixture.chips);
            const Pin &pin = fixture.shards[shard.chip];
            EXPECT_EQ(shard.graph->numVertices(), pin.vertices);
            EXPECT_EQ(shard.graph->numEdges(), pin.edges);
            EXPECT_EQ(shard.graph->numEdges() -
                          shard.graph->numEdgesNoSelfLoops(),
                      pin.selfLoops);
            EXPECT_EQ(shard.graph->contentFingerprint(),
                      pin.fingerprint);
        }
    }
}

TEST_F(PartitionTest, PolicyByNameRoundTrips)
{
    EXPECT_EQ(tryPartitionPolicyByName("contiguous").value(),
              PartitionPolicy::Contiguous);
    EXPECT_EQ(tryPartitionPolicyByName("edge").value(),
              PartitionPolicy::EdgeBalanced);
    EXPECT_EQ(tryPartitionPolicyByName("edge-balanced").value(),
              PartitionPolicy::EdgeBalanced);
}

} // namespace
} // namespace sgcn
