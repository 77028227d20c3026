/**
 * @file
 * Vertex reordering schemes.
 *
 * bfsIslandOrder models I-GCN's islandization (MICRO'21): a BFS from
 * high-degree seeds clusters connected communities into contiguous
 * id ranges, improving aggregation locality.
 */

#ifndef SGCN_GRAPH_REORDER_HH
#define SGCN_GRAPH_REORDER_HH

#include <vector>

#include "graph/csr_graph.hh"

namespace sgcn
{

/**
 * BFS-based islandization order.
 *
 * @param jobs 1 = serial; 0 = auto (parallel for million-node
 *        graphs); else fan island BFS over that many workers. The
 *        parallel path labels connected components first, orders
 *        islands by their best seed, and runs one BFS per island —
 *        bit-identical to the serial sweep for any value.
 * @return permutation where perm[old_id] = new_id.
 */
std::vector<VertexId> bfsIslandOrder(const CsrGraph &graph,
                                     unsigned jobs = 1);

/** Verify @p perm is a bijection on [0, n). */
bool isPermutation(const std::vector<VertexId> &perm);

} // namespace sgcn

#endif // SGCN_GRAPH_REORDER_HH
