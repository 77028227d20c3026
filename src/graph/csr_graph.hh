/**
 * @file
 * Compressed-sparse-row graph topology.
 *
 * The adjacency matrix A-tilde of Eq. (1)/(2) is stored in CSR with
 * per-edge weights holding the symmetric normalization
 * 1/sqrt((d_u+1)(d_v+1)) including self loops, exactly the form the
 * accelerators consume (SIII-B: "the topology matrix is assumed to be
 * in a CSR format").
 *
 * Column indices are byte-width packed (PackedIndexArray: 1/2/3/4
 * bytes per index picked from numVertices), and normalization
 * weights are derived on access from a per-vertex 1/sqrt(deg) table
 * instead of being materialized per edge — together ~3.5 bytes per
 * directed edge at 10^6 vertices versus 12 before. Graphs built
 * through fromCsrArrays (chip shards, whose weights come verbatim
 * from a parent normalization) keep an explicit per-edge weight
 * array. Both representations serve the same neighbors()/weights()
 * range API, bit-identical to the old span-of-materialized-floats
 * one.
 */

#ifndef SGCN_GRAPH_CSR_GRAPH_HH
#define SGCN_GRAPH_CSR_GRAPH_HH

#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "graph/packed_index.hh"
#include "sim/types.hh"

namespace sgcn
{

class CsrBuilder;

/** An undirected edge used during graph construction. */
using EdgePair = std::pair<VertexId, VertexId>;

/**
 * The normalized weights of one vertex's edge run. Values are either
 * read from an explicit per-edge array or derived on access as
 * float(invSqrtDeg[v] * invSqrtDeg[u]) — the exact expression the
 * old constructor materialized, so the floats are bit-identical.
 * Copyable value type, valid for the owning graph's lifetime.
 */
class EdgeWeightRange
{
  public:
    EdgeWeightRange() = default;

    /** Explicit per-edge weights. */
    explicit EdgeWeightRange(const float *weights, std::size_t count)
        : explicitW(weights), count_(count)
    {
    }

    /** Derived from the per-vertex normalization table. */
    EdgeWeightRange(double inv_sqrt_deg_v, const double *inv_sqrt_deg,
                    PackedIndexRange cols)
        : invV(inv_sqrt_deg_v), inv(inv_sqrt_deg), cols(cols),
          count_(cols.size())
    {
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    float
    operator[](std::size_t i) const
    {
        if (explicitW)
            return explicitW[i];
        return static_cast<float>(invV * inv[cols[i]]);
    }

    /** Sub-run [first, first + count). */
    EdgeWeightRange
    subrange(std::size_t first, std::size_t count) const
    {
        if (explicitW)
            return EdgeWeightRange(explicitW + first, count);
        return EdgeWeightRange(invV, inv,
                               cols.subrange(first, count));
    }

    class Iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = float;
        using difference_type = std::ptrdiff_t;
        using pointer = const float *;
        using reference = float;

        Iterator() = default;
        Iterator(const EdgeWeightRange *r, std::size_t i) : r(r), i(i)
        {
        }

        float operator*() const { return (*r)[i]; }
        Iterator &
        operator++()
        {
            ++i;
            return *this;
        }
        Iterator
        operator++(int)
        {
            Iterator tmp = *this;
            ++i;
            return tmp;
        }
        friend bool
        operator==(const Iterator &a, const Iterator &b)
        {
            return a.i == b.i;
        }

      private:
        const EdgeWeightRange *r = nullptr;
        std::size_t i = 0;
    };

    Iterator begin() const { return {this, 0}; }
    Iterator end() const { return {this, count_}; }

  private:
    const float *explicitW = nullptr;
    double invV = 0.0;
    const double *inv = nullptr;
    PackedIndexRange cols;
    std::size_t count_ = 0;
};

/** Immutable CSR graph with normalized edge weights. */
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
     * Build directly from CSR arrays, preserving the given edge
     * weights instead of recomputing the normalization. Chip
     * subgraphs use this: their rows are verbatim slices of a parent
     * graph whose weights were normalized against the *parent*
     * degrees, which a subgraph rebuild could not reproduce.
     *
     * @param self_loops number of (v, v) entries present in
     *        @p col_idx, for numEdgesNoSelfLoops() accounting.
     */
    static CsrGraph fromCsrArrays(VertexId num_vertices,
                                  std::vector<EdgeId> row_ptr,
                                  std::vector<VertexId> col_idx,
                                  std::vector<float> weights,
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

    /** Normalized weights parallel to neighbors(). */
    EdgeWeightRange
    weights(VertexId v) const
    {
        if (!edgeWeight.empty()) {
            return EdgeWeightRange(
                edgeWeight.data() + rowPtr[v],
                static_cast<std::size_t>(rowPtr[v + 1] - rowPtr[v]));
        }
        return EdgeWeightRange(invSqrtDeg[v], invSqrtDeg.data(),
                               neighbors(v));
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
     * era). The edge weights are a pure function of the topology, so
     * this identifies the graph completely; process-wide caches key
     * on it.
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
        return rowPtr.size() * sizeof(EdgeId) + colIdx.byteSize() +
               edgeWeight.size() * sizeof(float) +
               invSqrtDeg.size() * sizeof(double);
    }

    /** Adjacency bytes (packed indices + weight storage) per
     *  directed edge — the scale metric the million-node substrate
     *  targets (<= ~6 B/edge at 10^6 vertices). */
    double
    adjacencyBytesPerEdge() const
    {
        if (numEdges() == 0)
            return 0.0;
        return static_cast<double>(colIdx.byteSize() +
                                   edgeWeight.size() * sizeof(float) +
                                   invSqrtDeg.size() * sizeof(double)) /
               static_cast<double>(numEdges());
    }

  private:
    friend class CsrBuilder;

    void computeFingerprint();

    /** Fill invSqrtDeg from the final row pointers. */
    void computeNormalization(unsigned jobs);

    VertexId n = 0;
    EdgeId selfLoops = 0;
    std::vector<EdgeId> rowPtr{0};
    PackedIndexArray colIdx;

    /** Explicit per-edge weights (fromCsrArrays graphs only). */
    std::vector<float> edgeWeight;

    /** Per-vertex 1/sqrt(deg) (builder-made graphs; weights derive
     *  on access). */
    std::vector<double> invSqrtDeg;

    std::uint64_t fpLo = 0;
    std::uint64_t fpHi = 0;
};

} // namespace sgcn

#endif // SGCN_GRAPH_CSR_GRAPH_HH
