/**
 * @file
 * GraphSAGE-style ego-network fanout sampling for the serving-trace
 * workload.
 *
 * A per-user inference request resolves to the request vertex's
 * ego network: starting from a root, each hop samples up to `fanout`
 * distinct neighbours of every frontier vertex. A mini-batch of
 * requests is served as one subgraph — the union of the member
 * requests' sampled edges plus each member vertex's parent self
 * loop, renumbered to a compact vertex space. Like a chip shard, a
 * batch holds topology only: the simulator prices its edges without
 * reading a weight.
 *
 * Sampling is deterministic per (trace seed, request id): each
 * request owns a derived RNG stream, so a request's ego net is
 * independent of which batch it lands in and of the --jobs fan-out.
 */

#ifndef SGCN_GRAPH_SAMPLER_HH
#define SGCN_GRAPH_SAMPLER_HH

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hh"

namespace sgcn
{

/** Fanout-sampling shape shared by every request of a trace. */
struct EgoSampleParams
{
    /** Ego-network depth (sampling hops from the root). */
    unsigned hops = 2;

    /** Max distinct neighbours sampled per frontier vertex. */
    unsigned fanout = 10;

    /** Trace seed; request r samples under deriveRequestSeed(seed, r). */
    std::uint64_t seed = 0x5a9e;
};

/** A mini-batch subgraph plus its mapping back to the parent. */
struct BatchSubgraph
{
    /** Renumbered sampled subgraph, rows ascending. */
    CsrGraph graph;

    /** Parent vertex behind each subgraph row, ascending. */
    std::vector<VertexId> vertices;

    /** Parent root vertex of each member request, trace order. */
    std::vector<VertexId> roots;

    /** Directed sampled edges before self loops (diagnostics). */
    std::uint64_t sampledEdges = 0;
};

/** The derived RNG seed of request @p request under @p trace_seed. */
std::uint64_t deriveRequestSeed(std::uint64_t trace_seed,
                                std::uint64_t request);

/** The root vertex request @p request resolves to on @p graph. */
VertexId requestRoot(const CsrGraph &graph, std::uint64_t trace_seed,
                     std::uint64_t request);

/**
 * Sample one request's ego network: the directed edges
 * (vertex -> sampled neighbour) walked by a fanout-bounded BFS of
 * `params.hops` hops from the request's root. Deterministic per
 * (params.seed, request); batch membership never changes a
 * request's sample.
 */
std::vector<EdgePair> sampleEgoNet(const CsrGraph &graph,
                                   std::uint64_t trace_seed,
                                   std::uint64_t request,
                                   const EgoSampleParams &params);

/**
 * Build the union subgraph of requests [first, first + count) of the
 * trace seeded by @p params.seed: sampled edges of every member,
 * deduplicated, renumbered ascending by parent id, each member
 * vertex keeping its parent self loop at its sorted position in the
 * row.
 */
BatchSubgraph sampleBatchSubgraph(const CsrGraph &graph,
                                  std::uint64_t first_request,
                                  unsigned count,
                                  const EgoSampleParams &params);

} // namespace sgcn

#endif // SGCN_GRAPH_SAMPLER_HH
