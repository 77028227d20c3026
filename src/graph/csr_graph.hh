/**
 * @file
 * Compressed-sparse-row graph topology.
 *
 * The adjacency matrix A-tilde of Eq. (1)/(2) is stored in CSR, the
 * form the accelerators consume (SIII-B: "the topology matrix is
 * assumed to be in a CSR format"). A graph holds topology only: the
 * simulator prices each edge as NetworkSpec::edgeBytes of topology
 * traffic without reading a weight value, and GCN's symmetric
 * normalization is derived from the degrees by the functional
 * reference (gcnEdgeWeight, gcn/reference.hh), the one module that
 * computes with it.
 *
 * Column indices are byte-width packed (PackedIndexArray: 1/2/3/4
 * bytes per index picked from numVertices): 3 bytes per directed
 * edge at 10^6 vertices, versus 4 for uint32 indices.
 */

#ifndef SGCN_GRAPH_CSR_GRAPH_HH
#define SGCN_GRAPH_CSR_GRAPH_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/packed_index.hh"
#include "sim/types.hh"

namespace sgcn
{

class CsrBuilder;

/** An undirected edge used during graph construction. */
using EdgePair = std::pair<VertexId, VertexId>;

/** Immutable CSR graph topology. */
class CsrGraph
{
  public:
    /** The span-shaped view neighbors() hands out. */
    using NeighborRange = PackedIndexRange;

    CsrGraph() = default;

    /**
     * Build from an edge list (now a thin wrapper that streams the
     * vector through CsrBuilder's two passes).
     *
     * @param num_vertices Number of vertices.
     * @param edges Edge list; duplicates and self loops are dropped.
     * @param undirected If true both directions are materialized.
     * @param self_loops If true self loops are (re-)added, as GCN
     *                   normalization requires.
     */
    CsrGraph(VertexId num_vertices, std::vector<EdgePair> edges,
             bool undirected = true, bool self_loops = true);

    /**
     * Move the finished arrays out of a streaming builder (both
     * passes and finishCounting() must have run). Defined in
     * csr_builder.cc.
     */
    explicit CsrGraph(CsrBuilder &&builder);

    /**
     * Build directly from CSR arrays whose rows are already sorted
     * and deduplicated. Chip shards and serve batches use this: their
     * rows are remapped slices of a parent graph.
     *
     * @param self_loops number of (v, v) entries present in
     *        @p col_idx, for numEdgesNoSelfLoops() accounting.
     */
    static CsrGraph fromCsrArrays(VertexId num_vertices,
                                  std::vector<EdgeId> row_ptr,
                                  std::vector<VertexId> col_idx,
                                  EdgeId self_loops);

    /** Number of vertices. */
    VertexId numVertices() const { return n; }

    /** Number of directed edges (CSR entries), self loops included. */
    EdgeId numEdges() const { return static_cast<EdgeId>(colIdx.size()); }

    /** Directed edge count excluding self loops. */
    EdgeId numEdgesNoSelfLoops() const { return numEdges() - selfLoops; }

    /** Out-degree of @p v (including its self loop if present). */
    VertexId
    degree(VertexId v) const
    {
        return static_cast<VertexId>(rowPtr[v + 1] - rowPtr[v]);
    }

    /** Neighbors of @p v in ascending order. */
    NeighborRange
    neighbors(VertexId v) const
    {
        return colIdx.range(rowPtr[v],
                            static_cast<std::size_t>(rowPtr[v + 1] -
                                                     rowPtr[v]));
    }

    /** Raw row-pointer array (size numVertices()+1). */
    const std::vector<EdgeId> &rowPointers() const { return rowPtr; }

    /** Packed column-index array (decode-on-access). */
    const PackedIndexArray &columnIndices() const { return colIdx; }

    /** Average degree (directed edges / vertices). */
    double avgDegree() const;

    /** Maximum degree over all vertices. */
    VertexId maxDegree() const;

    /**
     * Locality score: fraction of edges whose endpoint distance
     * |u - v| is at most @p window. Community-clustered graphs score
     * high (Fig. 7b); used by tests and the SAC analysis.
     */
    double localityScore(VertexId window) const;

    /** Relabel vertices: new_id = perm[old_id]. Streams the edges
     *  through CsrBuilder (never materializes a COO copy); @p jobs
     *  as in CsrBuilder (0 = auto). */
    CsrGraph permuted(const std::vector<VertexId> &perm,
                      unsigned jobs = 0) const;

    /** Vertices sorted by descending degree (for EnGN's DAVC). */
    std::vector<VertexId> verticesByDegree() const;

    /**
     * 128-bit content fingerprint of the topology (two independent
     * FNV-1a streams over shape + row pointers + column indices),
     * computed once at construction. The column indices are hashed
     * as decoded uint32 values, so the fingerprint is independent of
     * the packed byte width (and unchanged from the unpacked-storage
     * era). It identifies the graph completely; process-wide caches
     * key on it.
     */
    std::pair<std::uint64_t, std::uint64_t>
    contentFingerprint() const
    {
        return {fpLo, fpHi};
    }

    /** Host-memory footprint of the CSR arrays in bytes. */
    std::uint64_t
    footprintBytes() const
    {
        return rowPtr.size() * sizeof(EdgeId) + colIdx.byteSize();
    }

    /** Packed-index bytes per directed edge — the scale metric the
     *  million-node substrate targets (<= ~6 B/edge at 10^6
     *  vertices). */
    double
    adjacencyBytesPerEdge() const
    {
        if (numEdges() == 0)
            return 0.0;
        return static_cast<double>(colIdx.byteSize()) /
               static_cast<double>(numEdges());
    }

  private:
    friend class CsrBuilder;

    void computeFingerprint();

    VertexId n = 0;
    EdgeId selfLoops = 0;
    std::vector<EdgeId> rowPtr{0};
    PackedIndexArray colIdx;

    std::uint64_t fpLo = 0;
    std::uint64_t fpHi = 0;
};

} // namespace sgcn

#endif // SGCN_GRAPH_CSR_GRAPH_HH
