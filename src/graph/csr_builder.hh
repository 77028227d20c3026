/**
 * @file
 * Streaming two-pass CSR construction.
 *
 * The old edge-list path materialized every edge as a COO pair,
 * appended the reverse directions, globally sorted, deduplicated,
 * and only then scattered into CSR — ~32 bytes of peak memory per
 * directed edge plus an O(E log E) sort. The builder replaces that
 * with the classic two-pass scheme: generators/loaders emit edges
 * chunk by chunk (twice — the streams are deterministic and cheap
 * to replay), pass one counts degrees, a prefix sum places the
 * rows, pass two scatters, and a per-row sort+dedup canonicalizes.
 * Nothing proportional to the whole COO is ever allocated, and the
 * final arrays are bit-identical to the old global-sort path: a
 * stable global sort of (src, dst) pairs is exactly "rows in order,
 * each row's destinations sorted and deduplicated".
 *
 * Counting and scattering use relaxed atomics, so both passes can
 * be fanned over the thread pool; the per-row sort makes the result
 * independent of scatter order, hence of chunk size and --jobs.
 */

#ifndef SGCN_GRAPH_CSR_BUILDER_HH
#define SGCN_GRAPH_CSR_BUILDER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/csr_graph.hh"
#include "sim/logging.hh"

namespace sgcn
{

/** Two-pass streaming CSR builder; see file comment. */
class CsrBuilder
{
  public:
    /**
     * @param num_vertices vertex count (all endpoints must be < it)
     * @param undirected if true every (u, v) also counts/scatters
     *        (v, u), as the edge-list constructor materialized
     * @param self_loops if true exactly one (v, v) per vertex is
     *        added (input self loops are always dropped first)
     * @param jobs parallelism for the builder's own passes
     *        (prefix sum, per-row sort, packing): 1 = serial,
     *        0 = auto (serial below ~1M scattered entries, all
     *        hardware threads above). Results are identical for any
     *        value.
     */
    explicit CsrBuilder(VertexId num_vertices, bool undirected = true,
                        bool self_loops = true, unsigned jobs = 1);

    VertexId numVertices() const { return n; }

    /** Pass 1: count one edge (thread-safe, relaxed atomics). */
    void
    countEdge(VertexId src, VertexId dst)
    {
        if (src == dst)
            return;
        boundsCheck(src, dst);
        degree[src].fetch_add(1, std::memory_order_relaxed);
        if (undirected)
            degree[dst].fetch_add(1, std::memory_order_relaxed);
    }

    /** Pass 1 over a chunk. */
    void
    countEdges(std::span<const EdgePair> chunk)
    {
        for (const auto &[src, dst] : chunk)
            countEdge(src, dst);
    }

    /**
     * End of pass 1: adds the self-loop counts, prefix-sums the
     * degrees into row placements, and allocates the scatter array.
     * Must be called exactly once, between the passes.
     */
    void finishCounting();

    /** Pass 2: scatter one edge (thread-safe, relaxed atomics).
     *  The edge multiset must match pass 1 exactly. */
    void
    addEdge(VertexId src, VertexId dst)
    {
        if (src == dst)
            return;
        scatter(src, dst);
        if (undirected)
            scatter(dst, src);
    }

    /** Pass 2 over a chunk. */
    void
    addEdges(std::span<const EdgePair> chunk)
    {
        for (const auto &[src, dst] : chunk)
            addEdge(src, dst);
    }

    /** Scattered entries so far (self loops included). */
    std::uint64_t scatteredEntries() const;

  private:
    friend class CsrGraph;

    /** Per-row sort+dedup, final prefix sum, pack, fingerprint;
     *  called by the CsrGraph builder-move constructor. */
    void finalizeInto(CsrGraph &graph);

    void
    boundsCheck(VertexId src, VertexId dst) const
    {
        SGCN_ASSERT(src < n && dst < n,
                    "edge endpoint out of range");
    }

    void
    scatter(VertexId src, VertexId dst)
    {
        boundsCheck(src, dst);
        const EdgeId slot =
            cursor(src).fetch_add(1, std::memory_order_relaxed);
        scratch[slot] = dst;
    }

    /** After finishCounting, degree[] doubles as the scatter cursor
     *  array (it was consumed by the prefix sum). */
    std::atomic<EdgeId> &cursor(VertexId v) { return degree[v]; }

    unsigned effectiveJobs(std::uint64_t work) const;

    VertexId n = 0;
    bool undirected = true;
    bool selfLoops = true;
    unsigned jobs = 1;
    bool counted = false;

    /** Pass-1 counts, then pass-2 cursors. */
    std::unique_ptr<std::atomic<EdgeId>[]> degree;

    /** Row placements with duplicate slack (size n + 1). */
    std::vector<std::uint64_t> slackPtr;

    /** Scatter target; rows are sorted/deduplicated in place. */
    std::vector<VertexId> scratch;
};

} // namespace sgcn

#endif // SGCN_GRAPH_CSR_BUILDER_HH
