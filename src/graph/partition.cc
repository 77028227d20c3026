#include "graph/partition.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace sgcn
{

namespace
{

/** Offset-table budget; above it edgeBegin switches to on-demand
 *  binary search (see the header comment). */
constexpr std::uint64_t kMaxTileTableBytes = 1ull << 26;

} // namespace

TiledGraphView::TiledGraphView(const CsrGraph &graph,
                               VertexId dst_tile_rows,
                               VertexId src_tile_cols)
    : topo(graph),
      dstSpan(dst_tile_rows == 0 ? graph.numVertices() : dst_tile_rows),
      srcSpan(src_tile_cols == 0 ? graph.numVertices() : src_tile_cols)
{
    const VertexId n = topo.numVertices();
    dstTiles = static_cast<unsigned>(divCeil(n, dstSpan));
    srcTiles = static_cast<unsigned>(divCeil(n, srcSpan));

    const std::uint64_t table_bytes = static_cast<std::uint64_t>(n) *
                                      (srcTiles + 1) * sizeof(EdgeId);
    if (table_bytes > kMaxTileTableBytes)
        return;

    // For every vertex, find where each src tile begins in its sorted
    // neighbour list via a single sweep.
    tileOffsets.resize(static_cast<std::size_t>(n) * (srcTiles + 1));
    for (VertexId v = 0; v < n; ++v) {
        const auto nbrs = topo.neighbors(v);
        const EdgeId base = topo.rowPointers()[v];
        std::size_t cursor = 0;
        const std::size_t row =
            static_cast<std::size_t>(v) * (srcTiles + 1);
        for (unsigned t = 0; t < srcTiles; ++t) {
            tileOffsets[row + t] = base + cursor;
            const VertexId tile_end =
                static_cast<VertexId>(std::min<std::uint64_t>(
                    static_cast<std::uint64_t>(t + 1) * srcSpan, n));
            while (cursor < nbrs.size() && nbrs[cursor] < tile_end)
                ++cursor;
        }
        tileOffsets[row + srcTiles] = base + cursor;
        SGCN_ASSERT(base + cursor == topo.rowPointers()[v + 1],
                    "tile sweep must cover all edges");
    }
}

VertexId
TiledGraphView::dstTileBegin(unsigned t) const
{
    SGCN_ASSERT(t < dstTiles);
    return static_cast<VertexId>(
        static_cast<std::uint64_t>(t) * dstSpan);
}

VertexId
TiledGraphView::dstTileEnd(unsigned t) const
{
    SGCN_ASSERT(t < dstTiles);
    return static_cast<VertexId>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(t + 1) * dstSpan,
        topo.numVertices()));
}

EdgeId
TiledGraphView::searchEdgeBegin(VertexId v, unsigned c) const
{
    const auto &row_ptr = topo.rowPointers();
    if (c == 0)
        return row_ptr[v];
    if (c >= srcTiles)
        return row_ptr[v + 1];
    const VertexId tile_begin = static_cast<VertexId>(
        static_cast<std::uint64_t>(c) * srcSpan);
    const auto nbrs = topo.neighbors(v);
    const auto it =
        std::lower_bound(nbrs.begin(), nbrs.end(), tile_begin);
    return row_ptr[v] + static_cast<EdgeId>(it - nbrs.begin());
}

CsrGraph::NeighborRange
TiledGraphView::tileNeighbors(VertexId v, unsigned c) const
{
    const EdgeId begin = edgeBegin(v, c);
    const EdgeId end = edgeBegin(v, c + 1);
    return topo.columnIndices().range(
        begin, static_cast<std::size_t>(end - begin));
}

VertexId
chooseSrcTileSpan(std::uint64_t cache_bytes,
                  double expected_bytes_per_vertex,
                  VertexId num_vertices, double cache_fill_factor)
{
    SGCN_ASSERT(expected_bytes_per_vertex > 0.0);
    const double budget =
        static_cast<double>(cache_bytes) * cache_fill_factor;
    auto span = static_cast<VertexId>(budget /
                                      expected_bytes_per_vertex);
    span = std::max<VertexId>(span, 64);
    return std::min(span, num_vertices);
}

Expected<PartitionPolicy>
tryPartitionPolicyByName(const std::string &name)
{
    if (name == "contiguous")
        return PartitionPolicy::Contiguous;
    if (name == "edge" || name == "edge-balanced")
        return PartitionPolicy::EdgeBalanced;
    return makeError(ErrorCode::NotFound, "unknown partition policy '",
                     name, "' (expected contiguous|edge)");
}

VertexId
ChipShard::chipRowOf(VertexId global) const
{
    if (global >= begin && global < end)
        return global - begin;
    const auto it =
        std::lower_bound(halo.begin(), halo.end(), global);
    SGCN_ASSERT(it != halo.end() && *it == global,
                "vertex ", global, " is not visible on chip ", chip);
    return ownedRows() +
           static_cast<VertexId>(it - halo.begin());
}

namespace
{

/** Cut points [0 = c_0 < c_1 < ... < c_chips = n] for the policy. */
std::vector<VertexId>
cutPoints(const CsrGraph &parent, unsigned chips,
          PartitionPolicy policy)
{
    const VertexId n = parent.numVertices();
    std::vector<VertexId> cuts(chips + 1, n);
    cuts[0] = 0;
    if (policy == PartitionPolicy::Contiguous) {
        const auto span = static_cast<VertexId>(divCeil(n, chips));
        for (unsigned c = 1; c < chips; ++c) {
            cuts[c] = static_cast<VertexId>(std::min<std::uint64_t>(
                static_cast<std::uint64_t>(c) * span, n));
        }
        return cuts;
    }
    // Edge-balanced: cut where the degree prefix sum crosses equal
    // shares of the directed edge count, keeping every range
    // non-empty (chips <= n is asserted by the caller).
    const auto &row_ptr = parent.rowPointers();
    const EdgeId total = parent.numEdges();
    for (unsigned c = 1; c < chips; ++c) {
        const EdgeId target = static_cast<EdgeId>(
            static_cast<double>(total) * c / chips);
        auto it = std::lower_bound(row_ptr.begin(), row_ptr.end(),
                                   target);
        auto cut = static_cast<VertexId>(it - row_ptr.begin());
        // Strictly increasing cuts, leaving at least one vertex for
        // every later chip.
        cut = std::max<VertexId>(cut, cuts[c - 1] + 1);
        cut = std::min<VertexId>(cut, n - (chips - c));
        cuts[c] = cut;
    }
    return cuts;
}

} // namespace

GraphPartition::GraphPartition(const CsrGraph &parent, unsigned chips,
                               PartitionPolicy policy)
    : cutPolicy(policy), parentVertices(parent.numVertices())
{
    const VertexId n = parent.numVertices();
    SGCN_ASSERT(chips >= 1 && chips <= n,
                "cannot partition ", n, " vertices over ", chips,
                " chips");
    const auto [lo, hi] = parent.contentFingerprint();
    parentFpLo = lo;
    parentFpHi = hi;

    const std::vector<VertexId> cuts = cutPoints(parent, chips,
                                                 policy);
    chipShards.reserve(chips);
    for (unsigned c = 0; c < chips; ++c) {
        ChipShard shard;
        shard.chip = c;
        shard.begin = cuts[c];
        shard.end = cuts[c + 1];
        SGCN_ASSERT(shard.begin < shard.end,
                    "chip ", c, " owns no vertices");
        const VertexId owned = shard.ownedRows();

        // Halo: sources outside the owned range, ascending and
        // deduplicated (neighbour lists are sorted, so a merge over
        // rows followed by sort+unique is exact).
        for (VertexId v = shard.begin; v < shard.end; ++v) {
            for (VertexId u : parent.neighbors(v)) {
                if (u < shard.begin || u >= shard.end)
                    shard.halo.push_back(u);
            }
        }
        std::sort(shard.halo.begin(), shard.halo.end());
        shard.halo.erase(
            std::unique(shard.halo.begin(), shard.halo.end()),
            shard.halo.end());

        // Renumbered subgraph: owned rows carry the parent's edges
        // (columns remapped), halo rows are empty aggregation
        // sources.
        const auto rows =
            static_cast<std::size_t>(owned) + shard.halo.size();
        std::vector<EdgeId> row_ptr(rows + 1, 0);
        std::vector<VertexId> col_idx;
        EdgeId self_loops = 0;
        col_idx.reserve(parent.rowPointers()[shard.end] -
                        parent.rowPointers()[shard.begin]);
        for (VertexId v = shard.begin; v < shard.end; ++v) {
            for (VertexId u : parent.neighbors(v)) {
                col_idx.push_back(shard.chipRowOf(u));
                if (u == v)
                    ++self_loops;
            }
            row_ptr[v - shard.begin + 1] = col_idx.size();
        }
        for (std::size_t r = owned; r < rows; ++r)
            row_ptr[r + 1] = row_ptr[r];
        shard.ownedEdges = static_cast<EdgeId>(col_idx.size());
        shard.graph = std::make_shared<const CsrGraph>(
            CsrGraph::fromCsrArrays(static_cast<VertexId>(rows),
                                    std::move(row_ptr),
                                    std::move(col_idx), self_loops));
        chipShards.push_back(std::move(shard));
    }
}

unsigned
GraphPartition::ownerOf(VertexId global) const
{
    SGCN_ASSERT(global < parentVertices, "vertex out of range");
    // Owned ranges are contiguous and sorted by begin.
    const auto it = std::upper_bound(
        chipShards.begin(), chipShards.end(), global,
        [](VertexId v, const ChipShard &shard) {
            return v < shard.begin;
        });
    return static_cast<unsigned>(it - chipShards.begin() - 1);
}

std::uint64_t
GraphPartition::totalHaloVertices() const
{
    std::uint64_t total = 0;
    for (const ChipShard &shard : chipShards)
        total += shard.halo.size();
    return total;
}

EdgeId
GraphPartition::maxOwnedEdges() const
{
    EdgeId max_edges = 0;
    for (const ChipShard &shard : chipShards)
        max_edges = std::max(max_edges, shard.ownedEdges);
    return max_edges;
}

std::uint64_t
GraphPartition::footprintBytes() const
{
    std::uint64_t bytes = sizeof(*this);
    for (const ChipShard &shard : chipShards) {
        bytes += sizeof(shard) +
                 shard.halo.size() * sizeof(VertexId) +
                 (shard.graph ? shard.graph->footprintBytes() : 0);
    }
    return bytes;
}

} // namespace sgcn
