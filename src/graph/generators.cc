#include "graph/generators.hh"

#include <algorithm>

#include "graph/csr_builder.hh"
#include "sim/logging.hh"
#include "sim/thread_pool.hh"

namespace sgcn
{

namespace
{

/** Wrap a signed offset into [0, n). */
VertexId
wrapVertex(std::int64_t value, VertexId n)
{
    const auto m = static_cast<std::int64_t>(n);
    std::int64_t r = value % m;
    if (r < 0)
        r += m;
    return static_cast<VertexId>(r);
}

/**
 * Chunked-substream protocol constants. The chunk size is part of
 * the generated graph's definition: chunk c always covers draws
 * [c * kGenChunkDraws, ...), each from an Rng seeded purely by
 * (seed, c) — so the edge multiset never depends on how many
 * workers replay the chunks, or in what order.
 */
constexpr EdgeId kGenChunkDraws = 1ull << 16;
constexpr std::uint64_t kGenChunkSalt = 0xa0761d6478bd642fULL;

Rng
chunkRng(std::uint64_t seed, EdgeId chunk)
{
    std::uint64_t key =
        seed ^ (kGenChunkSalt + chunk * 0x9e3779b97f4a7c15ULL);
    return Rng(Rng::splitMix64(key));
}

/** Draw @p draws clustered-model edges from @p rng. */
template <typename Emit>
void
drawClusteredEdges(Rng &rng, const ClusteredGraphParams &params,
                   const std::vector<VertexId> &hubs, EdgeId draws,
                   Emit &&emit)
{
    const VertexId n = params.vertices;
    const auto hub_count = static_cast<VertexId>(hubs.size());
    for (EdgeId i = 0; i < draws; ++i) {
        const auto src = static_cast<VertexId>(rng.uniformInt(n));
        VertexId dst;
        const double kind = rng.uniform();
        if (kind < params.hubFraction) {
            // Hub edge: attach to one of the designated hubs.
            dst = hubs[rng.uniformInt(hub_count)];
        } else if (kind < params.hubFraction + params.localityFraction) {
            // Local edge: endpoint distance geometric around src.
            const auto distance = static_cast<std::int64_t>(
                rng.geometric(params.localityDistance)) + 1;
            const bool negative = rng.bernoulli(0.5);
            dst = wrapVertex(static_cast<std::int64_t>(src) +
                             (negative ? -distance : distance), n);
        } else {
            dst = static_cast<VertexId>(rng.uniformInt(n));
        }
        if (dst != src)
            emit(src, dst);
    }
}

} // namespace

CsrGraph
clusteredGraph(const ClusteredGraphParams &params)
{
    SGCN_ASSERT(params.vertices > 1);
    SGCN_ASSERT(params.avgDegree > 0.0);

    const VertexId n = params.vertices;
    // Undirected edges to draw: each materializes two CSR entries.
    const auto target = static_cast<EdgeId>(
        params.avgDegree * static_cast<double>(n) / 2.0);

    const auto hub_count = std::max<VertexId>(
        1, static_cast<VertexId>(params.hubSetFraction *
                                 static_cast<double>(n)));
    // Hubs at hashed (aperiodic) positions: real hubs are not
    // evenly spaced, and periodic placement would alias with strip
    // scheduling.
    std::vector<VertexId> hubs(hub_count);
    for (VertexId h = 0; h < hub_count; ++h) {
        std::uint64_t key = params.seed ^ (0x9e3779b97f4a7c15ULL +
                                           h * 0x100000001b3ULL);
        hubs[h] = static_cast<VertexId>(Rng::splitMix64(key) % n);
    }

    // Stream the draws through the two-pass builder; the stream is
    // deterministic, so replaying it for the count pass costs only
    // RNG work and never materializes a COO vector. The legacy
    // single-Rng stream is kept verbatim for the frozen Table II
    // datasets; chunkedRng switches to per-chunk substreams that
    // admit a parallel replay (see kGenChunkDraws).
    const unsigned threads =
        params.chunkedRng ? ThreadPool::resolveJobs(params.jobs) : 1;
    CsrBuilder builder(n, true, true,
                       params.chunkedRng ? params.jobs : 0);
    const auto each_pass = [&](auto &&emit) {
        if (!params.chunkedRng) {
            Rng rng(params.seed);
            drawClusteredEdges(rng, params, hubs, target, emit);
            return;
        }
        const EdgeId chunks = divCeil(target, kGenChunkDraws);
        parallelFor(threads, chunks, [&](std::size_t c) {
            Rng rng = chunkRng(params.seed, c);
            const EdgeId begin = c * kGenChunkDraws;
            const EdgeId draws =
                std::min(kGenChunkDraws, target - begin);
            drawClusteredEdges(rng, params, hubs, draws, emit);
        });
    };
    each_pass([&](VertexId s, VertexId d) { builder.countEdge(s, d); });
    builder.finishCounting();
    each_pass([&](VertexId s, VertexId d) { builder.addEdge(s, d); });
    return CsrGraph(std::move(builder));
}

} // namespace sgcn
