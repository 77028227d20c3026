#include "graph/csr_graph.hh"

#include <algorithm>

#include "graph/csr_builder.hh"
#include "sim/logging.hh"
#include "sim/thread_pool.hh"

namespace sgcn
{

namespace
{

/** FNV-1a over a span of trivially-hashable values. */
template <typename T>
std::uint64_t
fnv1a(std::uint64_t hash, const T *data, std::size_t count)
{
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    for (std::size_t i = 0; i < count; ++i) {
        T value = data[i];
        const auto *bytes =
            reinterpret_cast<const unsigned char *>(&value);
        for (std::size_t b = 0; b < sizeof(T); ++b) {
            hash ^= bytes[b];
            hash *= kPrime;
        }
    }
    return hash;
}

/** FNV-1a over the decoded values of a packed index array, hashing
 *  the same uint32 byte stream the unpacked storage used to. */
std::uint64_t
fnv1aPacked(std::uint64_t hash, const PackedIndexArray &packed)
{
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    const std::size_t count = packed.size();
    for (std::size_t i = 0; i < count; ++i) {
        std::uint32_t value = packed[i];
        for (std::size_t b = 0; b < sizeof(value); ++b) {
            hash ^= (value >> (8 * b)) & 0xff;
            hash *= kPrime;
        }
    }
    return hash;
}

} // namespace

void
CsrGraph::computeFingerprint()
{
    const std::uint64_t shape[2] = {n, numEdges()};
    fpLo = fnv1a(0xcbf29ce484222325ULL, shape, 2);
    fpLo = fnv1a(fpLo, rowPtr.data(), rowPtr.size());
    fpLo = fnv1aPacked(fpLo, colIdx);
    fpHi = fnv1a(0x9e3779b97f4a7c15ULL, shape, 2);
    fpHi = fnv1aPacked(fpHi, colIdx);
    fpHi = fnv1a(fpHi, rowPtr.data(), rowPtr.size());
}

CsrGraph::CsrGraph(VertexId num_vertices, std::vector<EdgePair> edges,
                   bool undirected, bool self_loops)
{
    // Thin wrapper: stream the vector through the two-pass builder
    // (pass 1 counts, pass 2 scatters; per-row sort+dedup inside
    // finalize reproduces the old global sort+unique bit for bit).
    CsrBuilder builder(num_vertices, undirected, self_loops, 0);
    builder.countEdges(edges);
    builder.finishCounting();
    builder.addEdges(edges);
    *this = CsrGraph(std::move(builder));
}

CsrGraph
CsrGraph::fromCsrArrays(VertexId num_vertices,
                        std::vector<EdgeId> row_ptr,
                        std::vector<VertexId> col_idx,
                        EdgeId self_loops)
{
    SGCN_ASSERT(num_vertices > 0, "graph needs at least one vertex");
    SGCN_ASSERT(row_ptr.size() ==
                    static_cast<std::size_t>(num_vertices) + 1,
                "row pointer array size mismatch");
    SGCN_ASSERT(row_ptr.front() == 0 &&
                    row_ptr.back() == col_idx.size(),
                "CSR array sizes inconsistent");
    CsrGraph graph;
    graph.n = num_vertices;
    graph.selfLoops = self_loops;
    graph.rowPtr = std::move(row_ptr);
    graph.colIdx = PackedIndexArray(
        col_idx.size(), PackedIndexArray::widthFor(num_vertices));
    for (std::size_t i = 0; i < col_idx.size(); ++i)
        graph.colIdx.set(i, col_idx[i]);
    for (VertexId v = 0; v < graph.n; ++v) {
        SGCN_ASSERT(graph.rowPtr[v] <= graph.rowPtr[v + 1],
                    "row pointers must be monotone");
    }
    graph.computeFingerprint();
    return graph;
}

double
CsrGraph::avgDegree() const
{
    return static_cast<double>(numEdges()) / static_cast<double>(n);
}

VertexId
CsrGraph::maxDegree() const
{
    VertexId result = 0;
    for (VertexId v = 0; v < n; ++v)
        result = std::max(result, degree(v));
    return result;
}

double
CsrGraph::localityScore(VertexId window) const
{
    if (numEdgesNoSelfLoops() == 0)
        return 0.0;
    EdgeId close = 0;
    for (VertexId v = 0; v < n; ++v) {
        for (VertexId u : neighbors(v)) {
            if (u == v)
                continue;
            const VertexId distance = u > v ? u - v : v - u;
            if (distance <= window)
                ++close;
        }
    }
    return static_cast<double>(close) /
           static_cast<double>(numEdgesNoSelfLoops());
}

CsrGraph
CsrGraph::permuted(const std::vector<VertexId> &perm,
                   unsigned jobs) const
{
    SGCN_ASSERT(perm.size() == n, "permutation size mismatch");
    // The CSR already contains both directions, so rebuild directed
    // (self loops re-added by the builder). Both passes stream the
    // existing rows — no COO copy — and fan over the pool: the
    // builder's relaxed-atomic counters and per-row sort make the
    // result independent of the fan-out.
    CsrBuilder builder(n, false, selfLoops > 0, jobs);
    const unsigned threads = builder.numVertices() >= (1u << 20) ||
                                     numEdges() >= (1u << 22)
                                 ? ThreadPool::resolveJobs(jobs)
                                 : 1;
    const VertexId block =
        static_cast<VertexId>(divCeil(n, threads));
    const auto each_pass = [&](auto &&emit) {
        parallelFor(threads, threads, [&](std::size_t b) {
            const auto begin = static_cast<VertexId>(b * block);
            const auto end = static_cast<VertexId>(
                std::min<std::uint64_t>(begin + block, n));
            for (VertexId v = begin; v < end; ++v) {
                for (VertexId u : neighbors(v)) {
                    if (u != v)
                        emit(perm[v], perm[u]);
                }
            }
        });
    };
    each_pass([&](VertexId s, VertexId d) { builder.countEdge(s, d); });
    builder.finishCounting();
    each_pass([&](VertexId s, VertexId d) { builder.addEdge(s, d); });
    return CsrGraph(std::move(builder));
}

std::vector<VertexId>
CsrGraph::verticesByDegree() const
{
    std::vector<VertexId> order(n);
    for (VertexId v = 0; v < n; ++v)
        order[v] = v;
    std::stable_sort(order.begin(), order.end(),
                     [this](VertexId a, VertexId b) {
                         return degree(a) > degree(b);
                     });
    return order;
}

} // namespace sgcn
