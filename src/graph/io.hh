/**
 * @file
 * Graph file I/O: plain edge-list text files (one "src dst" pair per
 * line, '#' comments).
 *
 * The synthetic stand-ins (datasets.hh) drive the bundled
 * experiments, but a user with the original Planetoid/SNAP/OGB
 * files can export them to an edge list and run every harness on
 * the real topology via loadEdgeList().
 *
 * All entry points return typed errors (sim/error.hh) instead of
 * exiting: unreadable files are IoError, malformed or truncated
 * content is CorruptData. CLI tools unwrap with orFatal().
 */

#ifndef SGCN_GRAPH_IO_HH
#define SGCN_GRAPH_IO_HH

#include <string>

#include "graph/csr_graph.hh"
#include "sim/error.hh"

namespace sgcn
{

/**
 * Load an edge-list text file.
 *
 * Lines: "src dst" (whitespace separated). Lines starting with '#'
 * or '%' are comments. Vertex ids are zero-based and below 2^32 - 1
 * (a negative or larger id is CorruptData naming path:line); the
 * vertex count is max id + 1 unless @p num_vertices overrides it. A
 * file with no edge line is CorruptData unless @p num_vertices
 * declares a count, which then loads as that many isolated vertices.
 */
Expected<CsrGraph> loadEdgeList(const std::string &path,
                                VertexId num_vertices = 0,
                                bool undirected = true);

/** Write a graph as an edge-list text file (self loops skipped);
 *  IoError when the file cannot be opened or fully written. */
Status saveEdgeList(const CsrGraph &graph, const std::string &path);

} // namespace sgcn

#endif // SGCN_GRAPH_IO_HH
