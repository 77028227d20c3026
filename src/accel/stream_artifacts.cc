#include "accel/stream_artifacts.hh"

#include <algorithm>

#include "core/beicsr.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace sgcn
{

StreamArtifactCache &
StreamArtifactCache::instance()
{
    static StreamArtifactCache cache;
    return cache;
}

std::shared_ptr<const CsrGraph>
StreamArtifactCache::canonicalGraph(const CsrGraph &graph)
{
    const auto [lo, hi] = graph.contentFingerprint();
    return graphs.lookup(
        GraphKey{lo, hi},
        [&] { return std::make_shared<const CsrGraph>(graph); },
        [](const CsrGraph &g) { return g.footprintBytes(); });
}

StreamArtifactCache::MaskHandle
StreamArtifactCache::maskFor(const MaskKey &key)
{
    auto mask = masks.lookup(
        key,
        [&]() -> std::shared_ptr<const FeatureMask> {
            const auto kind = static_cast<MaskKind>(std::get<0>(key));
            const std::uint32_t rows = std::get<1>(key);
            const std::uint32_t cols = std::get<2>(key);
            const std::uint64_t seed = std::get<4>(key);
            switch (kind) {
              case MaskKind::Random:
                return streamMask(rows, cols, std::get<3>(key), seed);
              case MaskKind::OneHot: {
                Rng rng(seed);
                return std::make_shared<const FeatureMask>(
                    FeatureMask::oneHot(rows, cols, rng));
              }
              case MaskKind::Full:
              default:
                return std::make_shared<const FeatureMask>(
                    FeatureMask::full(rows, cols));
            }
        },
        [](const FeatureMask &m) { return m.footprintBytes(); });
    return MaskHandle{std::move(mask), key};
}

std::shared_ptr<const FeatureMask>
StreamArtifactCache::streamMask(std::uint32_t rows, std::uint32_t cols,
                                std::uint64_t sparsity_bits,
                                std::uint64_t seed)
{
    std::shared_ptr<MaskStream> stream;
    {
        std::lock_guard<std::mutex> lock(streamsMutex);
        auto &slot = streams[StreamKey{cols, sparsity_bits, seed}];
        if (!slot)
            slot = std::make_shared<MaskStream>(cols, seed);
        stream = slot;
    }
    // One lock per stream: requests for different row counts of one
    // stream take turns, so each row is drawn once and the saved Rng
    // state always sits after the stream mask's last row.
    std::lock_guard<std::mutex> lock(stream->mutex);
    const std::uint32_t drawn = stream->mask->rows();
    if (rows == drawn)
        return stream->mask;
    auto mask = std::make_shared<const FeatureMask>(
        FeatureMask::resumeRandom(*stream->mask, rows,
                                  std::bit_cast<double>(sparsity_bits),
                                  stream->rng));
    if (rows > drawn)
        stream->mask = mask;
    return mask;
}

StreamArtifactCache::MaskHandle
StreamArtifactCache::randomMask(std::uint32_t rows, std::uint32_t cols,
                                double sparsity, std::uint64_t seed)
{
    return maskFor(
        MaskKey{static_cast<std::uint8_t>(MaskKind::Random), rows, cols,
                std::bit_cast<std::uint64_t>(sparsity), seed});
}

StreamArtifactCache::MaskHandle
StreamArtifactCache::oneHotMask(std::uint32_t rows, std::uint32_t cols,
                                std::uint64_t seed)
{
    return maskFor(
        MaskKey{static_cast<std::uint8_t>(MaskKind::OneHot), rows, cols,
                0, seed});
}

StreamArtifactCache::MaskHandle
StreamArtifactCache::fullMask(std::uint32_t rows, std::uint32_t cols)
{
    return maskFor(MaskKey{static_cast<std::uint8_t>(MaskKind::Full),
                           rows, cols, 0, 0});
}

std::shared_ptr<const FeatureLayout>
StreamArtifactCache::preparedLayout(FormatKind format,
                                    std::uint32_t width,
                                    std::uint32_t slice_width,
                                    double expected_density, Addr base,
                                    const MaskHandle &mask)
{
    // A dense layout reads only its mask's rows(): sliceValues is
    // the slice width, and the plans and storageBytes follow the row
    // stride. So one dense layout serves every mask of its shape,
    // bound to the first of them asked for, and every dense layer of
    // a run shares one slice table, when its sweep needs one.
    const MaskKey mask_key =
        format == FormatKind::Dense
            ? MaskKey{0, mask->rows(), mask->cols(), 0, 0}
            : mask.key;
    const LayoutKey key{static_cast<std::uint8_t>(format), width,
                        slice_width,
                        std::bit_cast<std::uint64_t>(expected_density),
                        base, mask_key};
    auto holder = layouts.lookup(
        key,
        [&]() -> std::shared_ptr<const PreparedLayout> {
            auto prepared = std::make_shared<PreparedLayout>();
            prepared->mask = mask.mask;
            prepared->layout = makeLayout(format, width, slice_width);
            prepared->layout->setExpectedDensity(expected_density);
            prepared->layout->prepare(*prepared->mask, base);
            return prepared;
        },
        [](const PreparedLayout &p) {
            // The mask's bytes are accounted by the mask cache; only
            // the layout object (and its index vectors) are new.
            return p.layout->footprintBytes();
        });
    return std::shared_ptr<const FeatureLayout>(holder,
                                                holder->layout.get());
}

std::shared_ptr<const TiledGraphView>
StreamArtifactCache::tiledView(
    const std::shared_ptr<const CsrGraph> &graph, VertexId dst_span,
    VertexId src_span)
{
    const auto [lo, hi] = graph->contentFingerprint();
    auto holder = views.lookup(
        ViewKey{lo, hi, dst_span, src_span},
        [&] {
            return std::make_shared<const TiledView>(graph, dst_span,
                                                     src_span);
        },
        [](const TiledView &tv) { return tv.view.footprintBytes(); });
    return std::shared_ptr<const TiledGraphView>(holder, &holder->view);
}

std::shared_ptr<const GraphPartition>
StreamArtifactCache::partition(const CsrGraph &graph, unsigned chips,
                               PartitionPolicy policy)
{
    const auto [lo, hi] = graph.contentFingerprint();
    return partitions.lookup(
        PartitionKey{lo, hi, chips,
                     static_cast<std::uint8_t>(policy)},
        [&] {
            return std::make_shared<const GraphPartition>(graph, chips,
                                                          policy);
        },
        [](const GraphPartition &p) { return p.footprintBytes(); });
}

namespace
{

/** splitMix64 mixing step for derived-key digests. */
std::uint64_t
mix64(std::uint64_t state)
{
    state += 0x9e3779b97f4a7c15ULL;
    state = (state ^ (state >> 30)) * 0xbf58476d1ce4e5b9ULL;
    state = (state ^ (state >> 27)) * 0x94d049bb133111ebULL;
    return state ^ (state >> 31);
}

} // namespace

StreamArtifactCache::MaskHandle
StreamArtifactCache::chipMask(const MaskHandle &parent,
                              const GraphPartition &partition,
                              unsigned chip, bool include_halo)
{
    SGCN_ASSERT(parent, "chip mask needs a parent mask");
    SGCN_ASSERT(chip < partition.numChips(), "chip out of range");
    const ChipShard &shard = partition.shard(chip);
    // A shard owning every row with no halo is the whole graph: its
    // slice is the parent itself, so a one-chip run shares the global
    // masks (and the layouts prepared against them) instead of a
    // gathered copy.
    if (shard.ownedRows() == partition.numVertices() &&
        shard.haloRows() == 0) {
        return parent;
    }
    const auto total = static_cast<std::uint32_t>(shard.ownedRows() +
                                                  shard.haloRows());

    // Digest the parent key and the partition identity into the
    // sparsity/seed slots: two chained splitMix64 streams over the
    // same inputs from different initial states, so distinct inputs
    // collide only if both 64-bit streams collide.
    const auto [fp_lo, fp_hi] = partition.parentFingerprint();
    const std::uint64_t inputs[] = {
        static_cast<std::uint64_t>(std::get<0>(parent.key)),
        std::get<1>(parent.key),
        std::get<2>(parent.key),
        std::get<3>(parent.key),
        std::get<4>(parent.key),
        fp_lo,
        fp_hi,
        static_cast<std::uint64_t>(partition.numChips()),
        static_cast<std::uint64_t>(partition.policy()),
        chip,
        include_halo ? 1u : 0u,
    };
    std::uint64_t lo = 0x243f6a8885a308d3ULL;
    std::uint64_t hi = 0x13198a2e03707344ULL;
    for (std::uint64_t value : inputs) {
        lo = mix64(lo ^ value);
        hi = mix64(hi + value);
    }

    const MaskKey key{static_cast<std::uint8_t>(MaskKind::ChipGather),
                      total, std::get<2>(parent.key), lo, hi};
    auto mask = masks.lookup(
        key,
        [&]() -> std::shared_ptr<const FeatureMask> {
            std::vector<VertexId> rows;
            rows.reserve(include_halo ? total : shard.ownedRows());
            for (VertexId v = shard.begin; v < shard.end; ++v)
                rows.push_back(v);
            if (include_halo) {
                rows.insert(rows.end(), shard.halo.begin(),
                            shard.halo.end());
            }
            return std::make_shared<const FeatureMask>(
                FeatureMask::gatherRows(*parent.mask, rows, total));
        },
        [](const FeatureMask &m) { return m.footprintBytes(); });
    return MaskHandle{std::move(mask), key};
}

std::shared_ptr<const std::vector<VertexId>>
StreamArtifactCache::degreeOrder(const CsrGraph &graph)
{
    const auto [lo, hi] = graph.contentFingerprint();
    return degreeOrders.lookup(
        GraphKey{lo, hi},
        [&] {
            return std::make_shared<const std::vector<VertexId>>(
                graph.verticesByDegree());
        },
        [](const std::vector<VertexId> &order) {
            return order.size() * sizeof(VertexId);
        });
}

namespace
{

/** Distinct neighbours hit by @p fanout draws with replacement from
 *  a degree-@p degree vertex, under a per-vertex deterministic RNG. */
unsigned
distinctDraws(unsigned degree, unsigned fanout, Rng &rng)
{
    // Small fixed scratch: fanout is a sample size (tens), so a
    // sort-and-count over the drawn indices beats a degree-sized
    // bitmap for every realistic configuration.
    std::vector<std::uint32_t> draws(fanout);
    for (auto &draw : draws)
        draw = static_cast<std::uint32_t>(rng.uniformInt(degree));
    std::sort(draws.begin(), draws.end());
    return static_cast<unsigned>(
        std::unique(draws.begin(), draws.end()) - draws.begin());
}

} // anonymous namespace

double
StreamArtifactCache::sageEdgeFraction(const CsrGraph &graph,
                                      unsigned fanout,
                                      std::uint64_t seed)
{
    const auto [lo, hi] = graph.contentFingerprint();
    auto fraction = sageFractions.lookup(
        SageKey{lo, hi, fanout, seed},
        [&] {
            double sampled = 0.0;
            for (VertexId v = 0; v < graph.numVertices(); ++v) {
                const unsigned degree =
                    static_cast<unsigned>(graph.degree(v));
                if (seed == 0 || degree <= fanout) {
                    sampled += std::min(degree, fanout);
                } else {
                    // Seeded draw-with-replacement: per-vertex RNG
                    // derived from (seed, v) so the estimate is
                    // independent of traversal order.
                    std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL *
                                              (std::uint64_t{v} + 1));
                    Rng rng(Rng::splitMix64(x));
                    sampled += distinctDraws(degree, fanout, rng);
                }
            }
            return std::make_shared<const double>(
                sampled / static_cast<double>(graph.numEdges()));
        },
        [](const double &) { return sizeof(double); });
    return *fraction;
}

ArtifactStats
StreamArtifactCache::stats() const
{
    ArtifactStats merged;
    merged += graphs.stats();
    merged += masks.stats();
    merged += layouts.stats();
    merged += views.stats();
    merged += degreeOrders.stats();
    merged += sageFractions.stats();
    merged += partitions.stats();
    return merged;
}

void
StreamArtifactCache::clear()
{
    // Views and layouts co-own graphs and masks, so clearing them
    // first keeps no order dependence — shared_ptr handles released
    // by this clear free their memory as the last owner drops.
    views.clear();
    layouts.clear();
    degreeOrders.clear();
    sageFractions.clear();
    partitions.clear();
    masks.clear();
    graphs.clear();
    std::lock_guard<std::mutex> lock(streamsMutex);
    streams.clear();
}

} // namespace sgcn
