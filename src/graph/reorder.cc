#include "graph/reorder.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>

#include "sim/logging.hh"
#include "sim/thread_pool.hh"

namespace sgcn
{

namespace
{

/** Bit-packed visited set: vector<bool>'s proxy writes and
 *  per-access shifts were a measurable fraction of the old BFS. */
class VisitedBits
{
  public:
    explicit VisitedBits(VertexId n) : words(divCeil(n, 64), 0) {}

    bool
    test(VertexId v) const
    {
        return (words[v >> 6] >> (v & 63)) & 1;
    }

    void set(VertexId v) { words[v >> 6] |= 1ull << (v & 63); }

  private:
    std::vector<std::uint64_t> words;
};

/**
 * Shared visited set for the per-island fan-out. Logically each
 * worker only touches its own island's bits, but two islands can
 * share a 64-bit word, so the word update must be atomic (relaxed is
 * enough: there is no cross-island communication through the bits).
 */
class AtomicVisitedBits
{
  public:
    explicit AtomicVisitedBits(VertexId n)
        : words(std::make_unique<std::atomic<std::uint64_t>[]>(
              divCeil(n, 64)))
    {
        for (std::uint64_t w = 0; w < divCeil(n, 64); ++w)
            words[w].store(0, std::memory_order_relaxed);
    }

    bool
    test(VertexId v) const
    {
        return (words[v >> 6].load(std::memory_order_relaxed) >>
                (v & 63)) &
               1;
    }

    void
    set(VertexId v)
    {
        words[v >> 6].fetch_or(1ull << (v & 63),
                               std::memory_order_relaxed);
    }

  private:
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
};

/**
 * BFS over one island from @p seed, assigning ids starting at
 * @p next_id. The frontier is a plain vector with a read cursor —
 * the old std::deque paid an allocation every 512 pushes.
 * Returns one past the last id assigned.
 */
template <typename Visited>
VertexId
bfsIsland(const CsrGraph &graph, VertexId seed, VertexId next_id,
          Visited &visited, std::vector<VertexId> &frontier,
          std::vector<VertexId> &perm)
{
    frontier.clear();
    visited.set(seed);
    frontier.push_back(seed);
    std::size_t head = 0;
    while (head < frontier.size()) {
        const VertexId v = frontier[head++];
        perm[v] = next_id++;
        for (VertexId u : graph.neighbors(v)) {
            if (!visited.test(u)) {
                visited.set(u);
                frontier.push_back(u);
            }
        }
    }
    return next_id;
}

/** Union-find root with path halving. */
VertexId
findRoot(std::vector<VertexId> &parent, VertexId v)
{
    while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
    }
    return v;
}

std::vector<VertexId>
bfsIslandOrderParallel(const CsrGraph &graph, unsigned threads,
                       const std::vector<VertexId> &seeds)
{
    const VertexId n = graph.numVertices();
    std::vector<VertexId> perm(n, n);

    // Islands are exactly connected components: label them with a
    // serial union-find sweep (cheap relative to the BFS it unlocks).
    std::vector<VertexId> parent(n);
    std::iota(parent.begin(), parent.end(), 0);
    for (VertexId v = 0; v < n; ++v) {
        for (VertexId u : graph.neighbors(v)) {
            const VertexId rv = findRoot(parent, v);
            const VertexId ru = findRoot(parent, u);
            if (rv != ru)
                parent[std::max(rv, ru)] = std::min(rv, ru);
        }
    }

    // Deterministic island order: the serial sweep starts each
    // island at its best-ranked seed, so rank islands by the first
    // occurrence of their root in the seed scan.
    std::vector<VertexId> island_seed;
    std::vector<VertexId> island_of_root(n, n);
    for (VertexId seed : seeds) {
        const VertexId root = findRoot(parent, seed);
        if (island_of_root[root] == n) {
            island_of_root[root] =
                static_cast<VertexId>(island_seed.size());
            island_seed.push_back(seed);
        }
    }
    const auto islands = static_cast<VertexId>(island_seed.size());

    // Island sizes -> starting offsets, matching the serial id flow.
    std::vector<std::uint64_t> sizes(islands, 0);
    for (VertexId v = 0; v < n; ++v)
        ++sizes[island_of_root[findRoot(parent, v)]];
    std::vector<std::uint64_t> offset(islands + 1, 0);
    for (VertexId i = 0; i < islands; ++i)
        offset[i + 1] = offset[i] + sizes[i];
    SGCN_ASSERT(offset[islands] == n,
                "islands must cover all vertices");

    // One BFS per island; islands are vertex-disjoint, so the only
    // shared write target is perm, at disjoint indices.
    AtomicVisitedBits visited(n);
    parallelFor(threads, islands, [&](std::size_t i) {
        std::vector<VertexId> frontier;
        frontier.reserve(sizes[i]);
        const VertexId end = bfsIsland(
            graph, island_seed[i],
            static_cast<VertexId>(offset[i]), visited, frontier,
            perm);
        SGCN_ASSERT(end == offset[i + 1],
                    "island BFS must cover its component");
    });
    return perm;
}

} // namespace

std::vector<VertexId>
bfsIslandOrder(const CsrGraph &graph, unsigned jobs)
{
    const VertexId n = graph.numVertices();

    // Seed order: descending degree, so islands grow around hubs the
    // way I-GCN's islandization does.
    const std::vector<VertexId> seeds = graph.verticesByDegree();

    const unsigned threads =
        jobs == 0 ? (n >= (1u << 20) ? ThreadPool::hardwareJobs() : 1)
                  : ThreadPool::resolveJobs(jobs);
    if (threads > 1)
        return bfsIslandOrderParallel(graph, threads, seeds);

    std::vector<VertexId> perm(n, n);
    VisitedBits visited(n);
    std::vector<VertexId> frontier;
    VertexId next_id = 0;
    for (VertexId seed : seeds) {
        if (visited.test(seed))
            continue;
        next_id =
            bfsIsland(graph, seed, next_id, visited, frontier, perm);
    }
    SGCN_ASSERT(next_id == n, "BFS order must cover all vertices");
    return perm;
}

bool
isPermutation(const std::vector<VertexId> &perm)
{
    std::vector<bool> seen(perm.size(), false);
    for (VertexId v : perm) {
        if (v >= perm.size() || seen[v])
            return false;
        seen[v] = true;
    }
    return true;
}

} // namespace sgcn
