/**
 * @file
 * The synthetic graph generator behind every Table II stand-in and
 * every synth: dataset. It produces the two structural properties
 * SGCN's sparsity-aware cooperation exploits (SV-C, Fig. 7b) —
 * neighbour similarity between adjacent vertex ids and community
 * clustering around the diagonal — with controllable degree skew.
 * localityFraction = hubFraction = 0 gives a uniform random graph.
 */

#ifndef SGCN_GRAPH_GENERATORS_HH
#define SGCN_GRAPH_GENERATORS_HH

#include <cstdint>

#include "graph/csr_graph.hh"
#include "sim/rng.hh"

namespace sgcn
{

/** Parameters for the clustered, locality-preserving generator. */
struct ClusteredGraphParams
{
    /** Number of vertices. */
    VertexId vertices = 1024;

    /** Target average directed degree (CSR entries per vertex,
     *  excluding self loops). */
    double avgDegree = 10.0;

    /**
     * Fraction of edges drawn near the diagonal (endpoint distance
     * geometric with mean localityDistance); the rest are uniform
     * "long-range" edges. Citation networks sit around 0.8-0.9,
     * knowledge graphs lower.
     */
    double localityFraction = 0.8;

    /** Mean |u - v| distance for local edges. */
    double localityDistance = 64.0;

    /**
     * Fraction of edges attached to a small hub set, producing a
     * skewed degree distribution (social graphs, Reddit).
     */
    double hubFraction = 0.05;

    /** Hub set size as a fraction of vertices. */
    double hubSetFraction = 0.001;

    /** RNG seed. */
    std::uint64_t seed = 1;

    /**
     * Draw edges in fixed-size chunks, each from its own RNG
     * substream (seeded from the chunk index), instead of one serial
     * stream. The chunk size is a protocol constant, so the edge
     * multiset — hence the graph — is independent of @ref jobs; but
     * it differs from the legacy serial stream, so only datasets
     * with no frozen baseline (synth:) enable it.
     */
    bool chunkedRng = false;

    /** Generation/build parallelism when chunkedRng (0 = auto). */
    unsigned jobs = 1;
};

/** Clustered / locality-preserving community graph (see above). */
CsrGraph clusteredGraph(const ClusteredGraphParams &params);

} // namespace sgcn

#endif // SGCN_GRAPH_GENERATORS_HH
