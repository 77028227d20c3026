#include "graph/sampler.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace sgcn
{

namespace
{

/**
 * Sample @p k distinct indices from [0, d) into @p out using Floyd's
 * algorithm: O(k) draws regardless of d, and a fixed draw order so
 * the result is a pure function of the RNG state.
 */
void
sampleDistinct(unsigned d, unsigned k, Rng &rng,
               std::vector<std::uint32_t> &out)
{
    out.clear();
    if (k >= d) {
        for (std::uint32_t i = 0; i < d; ++i)
            out.push_back(i);
        return;
    }
    for (unsigned j = d - k; j < d; ++j) {
        const auto t =
            static_cast<std::uint32_t>(rng.uniformInt(j + 1));
        if (std::find(out.begin(), out.end(), t) != out.end())
            out.push_back(static_cast<std::uint32_t>(j));
        else
            out.push_back(t);
    }
}

/**
 * The index std::lower_bound finds for @p value in the ascending
 * @p range. Each step's comparison selects the next index instead of
 * taking a branch: the searched values land at random positions, so
 * a branch per step would mispredict about half the time.
 */
template <typename Range>
std::size_t
branchFreeLowerBound(const Range &range, VertexId value)
{
    std::size_t first = 0;
    std::size_t len = range.size();
    while (len > 1) {
        const std::size_t half = len / 2;
        first = range[first + half - 1] < value ? first + half : first;
        len -= half;
    }
    return first + (len == 1 && range[first] < value ? 1 : 0);
}

} // anonymous namespace

std::uint64_t
deriveRequestSeed(std::uint64_t trace_seed, std::uint64_t request)
{
    // splitMix64 over the xor-folded pair: cheap, and adjacent
    // request ids land in decorrelated streams.
    std::uint64_t x =
        trace_seed ^ (0x9e3779b97f4a7c15ULL * (request + 1));
    return Rng::splitMix64(x);
}

VertexId
requestRoot(const CsrGraph &graph, std::uint64_t trace_seed,
            std::uint64_t request)
{
    Rng rng(deriveRequestSeed(trace_seed, request));
    return static_cast<VertexId>(rng.uniformInt(graph.numVertices()));
}

std::vector<EdgePair>
sampleEgoNet(const CsrGraph &graph, std::uint64_t trace_seed,
             std::uint64_t request, const EgoSampleParams &params)
{
    Rng rng(deriveRequestSeed(trace_seed, request));
    const auto root =
        static_cast<VertexId>(rng.uniformInt(graph.numVertices()));

    std::vector<EdgePair> edges;
    std::vector<VertexId> frontier{root};
    std::vector<VertexId> next;
    std::vector<VertexId> visited{root};
    std::vector<std::uint32_t> picks;
    for (unsigned hop = 0; hop < params.hops; ++hop) {
        next.clear();
        // The frontier is kept sorted and deduplicated, so the draw
        // sequence (and thus the sample) is a pure function of the
        // request seed.
        for (VertexId v : frontier) {
            const auto nbrs = graph.neighbors(v);
            const auto degree = static_cast<unsigned>(nbrs.size());
            if (degree == 0)
                continue;
            sampleDistinct(degree, params.fanout, rng, picks);
            for (std::uint32_t pick : picks) {
                const VertexId u = nbrs[pick];
                if (u == v)
                    continue; // the self loop is re-added per vertex
                edges.push_back({v, u});
                if (!std::binary_search(visited.begin(),
                                        visited.end(), u))
                    next.push_back(u);
            }
        }
        std::sort(next.begin(), next.end());
        next.erase(std::unique(next.begin(), next.end()), next.end());
        // Merge the new frontier into the sorted visited set.
        const std::size_t old = visited.size();
        visited.insert(visited.end(), next.begin(), next.end());
        std::inplace_merge(visited.begin(),
                           visited.begin() +
                               static_cast<std::ptrdiff_t>(old),
                           visited.end());
        frontier = next;
    }
    return edges;
}

BatchSubgraph
sampleBatchSubgraph(const CsrGraph &graph, std::uint64_t first_request,
                    unsigned count, const EgoSampleParams &params)
{
    SGCN_ASSERT(count > 0, "batch needs at least one request");
    BatchSubgraph out;
    std::vector<EdgePair> edges;
    for (unsigned r = 0; r < count; ++r) {
        const std::uint64_t request = first_request + r;
        out.roots.push_back(
            requestRoot(graph, params.seed, request));
        std::vector<EdgePair> ego =
            sampleEgoNet(graph, params.seed, request, params);
        edges.insert(edges.end(), ego.begin(), ego.end());
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    out.sampledEdges = edges.size();

    // The subgraph vertex set: every endpoint plus every root (a
    // request on an edge-less vertex still contributes its root, so
    // a batch can never produce an empty subgraph), ascending, so
    // the renumbering is monotone and per-row columns stay sorted.
    std::vector<VertexId> &verts = out.vertices;
    verts = out.roots;
    for (const EdgePair &e : edges) {
        verts.push_back(e.first);
        verts.push_back(e.second);
    }
    std::sort(verts.begin(), verts.end());
    verts.erase(std::unique(verts.begin(), verts.end()), verts.end());

    const auto localOf = [&verts](VertexId parent) {
        return static_cast<VertexId>(branchFreeLowerBound(verts, parent));
    };

    // Rows: each vertex's sampled out-edges plus its parent self
    // loop. The sampled targets are ascending and were drawn from the
    // parent row, so a row searches its parent row only once, for
    // the self loop, and writes it at its sorted position among the
    // targets (TiledGraphView's searches need sorted rows).
    const auto rows = static_cast<VertexId>(verts.size());
    std::vector<EdgeId> row_ptr(static_cast<std::size_t>(rows) + 1, 0);
    std::vector<VertexId> col_idx;
    EdgeId self_loops = 0;
    std::size_t next_edge = 0;
    for (VertexId row = 0; row < rows; ++row) {
        const VertexId v = verts[row];
        const auto nbrs = graph.neighbors(v);
        const std::size_t self = branchFreeLowerBound(nbrs, v);
        bool self_pending = self < nbrs.size() && nbrs[self] == v;
        if (self_pending)
            ++self_loops;
        for (; next_edge < edges.size() && edges[next_edge].first == v;
             ++next_edge) {
            const VertexId target = edges[next_edge].second;
            if (self_pending && target > v) {
                col_idx.push_back(row);
                self_pending = false;
            }
            col_idx.push_back(localOf(target));
        }
        if (self_pending)
            col_idx.push_back(row);
        row_ptr[row + 1] = static_cast<EdgeId>(col_idx.size());
    }
    out.graph = CsrGraph::fromCsrArrays(rows, std::move(row_ptr),
                                        std::move(col_idx), self_loops);
    return out;
}

} // namespace sgcn
