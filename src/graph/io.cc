#include "graph/io.hh"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

namespace sgcn
{

Expected<CsrGraph>
loadEdgeList(const std::string &path, VertexId num_vertices,
             bool undirected)
{
    std::ifstream in(path);
    if (!in)
        return makeError(ErrorCode::IoError,
                         "cannot open edge list: ", path);
    constexpr std::int64_t kIdLimit =
        std::numeric_limits<VertexId>::max();

    std::vector<EdgePair> edges;
    VertexId max_id = 0;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#' || line[0] == '%')
            continue;
        std::istringstream fields(line);
        std::int64_t src, dst;
        if (!(fields >> src >> dst)) {
            return makeError(ErrorCode::CorruptData,
                             "malformed edge at ", path, ":", line_no,
                             ": '", line, "'");
        }
        // Signed reads so "-3" is caught instead of wrapping; ids
        // stop one short of the VertexId range so max id + 1 fits.
        if (src < 0 || dst < 0 || src >= kIdLimit || dst >= kIdLimit) {
            return makeError(ErrorCode::CorruptData,
                             "vertex id out of range at ", path, ":",
                             line_no, ": '", line, "' (ids must be in "
                             "[0, ", kIdLimit - 1, "])");
        }
        edges.emplace_back(static_cast<VertexId>(src),
                           static_cast<VertexId>(dst));
        max_id = std::max(max_id, static_cast<VertexId>(src));
        max_id = std::max(max_id, static_cast<VertexId>(dst));
    }
    if (edges.empty() && num_vertices == 0) {
        return makeError(ErrorCode::CorruptData, "edge list ", path,
                         " has no edges and declares no vertex count");
    }
    const VertexId n =
        num_vertices != 0 ? num_vertices : max_id + 1;
    if (num_vertices != 0 && max_id >= num_vertices) {
        return makeError(ErrorCode::CorruptData, "edge list ", path,
                         " references vertex ", max_id,
                         " >= declared count ", num_vertices);
    }
    return CsrGraph(n, std::move(edges), undirected, true);
}

Status
saveEdgeList(const CsrGraph &graph, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return makeError(ErrorCode::IoError,
                         "cannot write edge list: ", path);
    out << "# sgcn edge list: " << graph.numVertices() << " vertices, "
        << graph.numEdgesNoSelfLoops() << " directed edges\n";
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        for (VertexId u : graph.neighbors(v)) {
            if (u != v)
                out << v << ' ' << u << '\n';
        }
    }
    // Checked after close: a full device fails only at the flush.
    out.close();
    if (!out)
        return makeError(ErrorCode::IoError,
                         "cannot write edge list: ", path);
    return Status::success();
}

} // namespace sgcn
