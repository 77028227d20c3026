#include "graph/csr_builder.hh"

#include <algorithm>

#include "core/prefix_sum.hh"
#include "sim/thread_pool.hh"

namespace sgcn
{

namespace
{

/** Auto-jobs threshold: below ~1M scattered entries the fan-out
 *  costs more than the passes. */
constexpr std::uint64_t kParallelEntryThreshold = 1ull << 20;

} // namespace

CsrBuilder::CsrBuilder(VertexId num_vertices, bool undirected,
                       bool self_loops, unsigned jobs)
    : n(num_vertices), undirected(undirected), selfLoops(self_loops),
      jobs(jobs)
{
    SGCN_ASSERT(n > 0, "graph needs at least one vertex");
    degree = std::make_unique<std::atomic<EdgeId>[]>(n);
    for (VertexId v = 0; v < n; ++v)
        degree[v].store(0, std::memory_order_relaxed);
}

unsigned
CsrBuilder::effectiveJobs(std::uint64_t work) const
{
    if (jobs == 1)
        return 1;
    if (jobs == 0) {
        return work >= kParallelEntryThreshold
                   ? ThreadPool::hardwareJobs()
                   : 1;
    }
    return jobs;
}

void
CsrBuilder::finishCounting()
{
    SGCN_ASSERT(!counted, "finishCounting must run exactly once");
    counted = true;

    const EdgeId self = selfLoops ? 1 : 0;
    std::vector<std::uint64_t> counts(n);
    for (VertexId v = 0; v < n; ++v)
        counts[v] = degree[v].load(std::memory_order_relaxed) + self;
    const std::uint64_t total =
        exclusivePrefixSum(counts, effectiveJobs(n));
    slackPtr.assign(static_cast<std::size_t>(n) + 1, 0);
    std::copy(counts.begin(), counts.end(), slackPtr.begin());
    slackPtr[n] = total;

    scratch.resize(total);
    // degree[] becomes the scatter cursor array; seed the self loops
    // immediately so pass 2 only sees real edges.
    for (VertexId v = 0; v < n; ++v)
        degree[v].store(slackPtr[v], std::memory_order_relaxed);
    if (selfLoops) {
        for (VertexId v = 0; v < n; ++v)
            scatter(v, v);
    }
}

std::uint64_t
CsrBuilder::scatteredEntries() const
{
    std::uint64_t total = 0;
    for (VertexId v = 0; v < n; ++v)
        total += degree[v].load(std::memory_order_relaxed) -
                 slackPtr[v];
    return total;
}

void
CsrBuilder::finalizeInto(CsrGraph &graph)
{
    SGCN_ASSERT(counted,
                "finishCounting must run before finalizing");
    const std::uint64_t entries = slackPtr.back();
    const unsigned threads = effectiveJobs(entries);
    const VertexId block =
        static_cast<VertexId>(divCeil(n, threads));

    // Every counted slot must have been scattered: the row sort
    // below reads [slackPtr[v], cursor[v]) assuming it is full.
    for (VertexId v = 0; v < n; ++v) {
        SGCN_ASSERT(degree[v].load(std::memory_order_relaxed) ==
                        slackPtr[v + 1],
                    "pass 2 edge stream diverged from pass 1");
    }

    // Per-row sort + dedup in place; the post-dedup sizes replace
    // the cursors. Independent rows fan out trivially.
    parallelFor(threads, threads, [&](std::size_t b) {
        const auto begin = static_cast<VertexId>(b * block);
        const auto end = static_cast<VertexId>(
            std::min<std::uint64_t>(begin + block, n));
        for (VertexId v = begin; v < end; ++v) {
            auto *row_begin = scratch.data() + slackPtr[v];
            auto *row_end = scratch.data() + slackPtr[v + 1];
            std::sort(row_begin, row_end);
            auto *unique_end = std::unique(row_begin, row_end);
            degree[v].store(
                static_cast<EdgeId>(unique_end - row_begin),
                std::memory_order_relaxed);
        }
    });

    // Final (dedup'd) row pointers.
    std::vector<std::uint64_t> counts(n);
    for (VertexId v = 0; v < n; ++v)
        counts[v] = degree[v].load(std::memory_order_relaxed);
    const std::uint64_t final_entries =
        exclusivePrefixSum(counts, threads);
    graph.rowPtr.assign(static_cast<std::size_t>(n) + 1, 0);
    std::copy(counts.begin(), counts.end(), graph.rowPtr.begin());
    graph.rowPtr[n] = final_entries;

    // Pack the surviving indices at their final offsets.
    graph.colIdx = PackedIndexArray(final_entries,
                                    PackedIndexArray::widthFor(n));
    parallelFor(threads, threads, [&](std::size_t b) {
        const auto begin = static_cast<VertexId>(b * block);
        const auto end = static_cast<VertexId>(
            std::min<std::uint64_t>(begin + block, n));
        for (VertexId v = begin; v < end; ++v) {
            const std::uint64_t src = slackPtr[v];
            const std::uint64_t dst = graph.rowPtr[v];
            const std::uint64_t count =
                graph.rowPtr[v + 1] - graph.rowPtr[v];
            for (std::uint64_t i = 0; i < count; ++i)
                graph.colIdx.set(dst + i, scratch[src + i]);
        }
    });

    scratch.clear();
    scratch.shrink_to_fit();

    graph.n = n;
    graph.selfLoops = selfLoops ? n : 0;
    graph.computeFingerprint();
}

CsrGraph::CsrGraph(CsrBuilder &&builder)
{
    builder.finalizeInto(*this);
}

} // namespace sgcn
