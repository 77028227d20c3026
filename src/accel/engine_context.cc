#include "accel/engine_context.hh"

#include <algorithm>

#include "accel/stream_artifacts.hh"
#include "core/sac.hh"

namespace sgcn
{

EngineContext::EngineContext(const AccelConfig &config,
                             const LayerContext &layer_ctx)
    : cfg(config), layer(layer_ctx), dram(config.dram, events),
      cache(config.cache, dram, events), systolic(config.systolic)
{
    if (cfg.dataflow == DataflowKind::ColumnProduct) {
        CacheConfig psum_config;
        psum_config.sizeBytes = cfg.psumBufferKb * 1024;
        psum_config.ways = 16;
        psumBuffer = std::make_unique<Cache>(psum_config, dram, events);
    }
}

EngineContext::~EngineContext() = default;

std::uint64_t
EngineContext::denseRowLines(std::uint32_t width) const
{
    return denseRowStride(width) / kCachelineBytes;
}

Cycle
EngineContext::combineRows(VertexId rows, bool zero_skip)
{
    const GemmCost gemm = systolic.gemm(
        rows, layer.inWidth, layer.outWidth,
        zero_skip ? layer.inSparsity : 0.0);
    combMacs += gemm.macs;
    return gemm.cycles / cfg.combEngines;
}

std::shared_ptr<const TiledGraphView>
EngineContext::sweepView(const FeatureLayout &layout,
                         std::uint32_t full_width) const
{
    const VertexId n = layer.graph->numVertices();
    const VertexId src_span =
        cfg.topologyTiling
            ? chooseSrcTileSpan(cfg.cache.sizeBytes,
                                layout.staticSliceBytesEstimate(), n)
            : n;
    const std::uint32_t pass_cols =
        layout.supportsSlicing() ? layout.sliceWidth() : full_width;
    const auto psum_rows = static_cast<VertexId>(std::max<std::uint64_t>(
        64, cfg.aggPsumBudgetBytes /
                (static_cast<std::uint64_t>(pass_cols) * kFeatureBytes)));
    const VertexId dst_span = std::min({cfg.dstTileRows, n, psum_rows});

    auto &artifacts = StreamArtifactCache::instance();
    // Hand-built fixtures may not carry a graph owner; canonicalize
    // on the fly so the cached view co-owns its topology either way.
    const std::shared_ptr<const CsrGraph> owner =
        layer.graphOwner ? layer.graphOwner
                         : artifacts.canonicalGraph(*layer.graph);
    return artifacts.tiledView(owner, dst_span, src_span);
}

std::uint64_t
EngineContext::weightLines() const
{
    return divCeil(static_cast<std::uint64_t>(layer.inWidth) *
                       layer.outWidth * kFeatureBytes,
                   kCachelineBytes);
}

std::uint32_t
EngineContext::psumStripWidth() const
{
    return cfg.sliceC == 0 ? layer.outWidth
                           : std::min(cfg.sliceC, layer.outWidth);
}

unsigned
EngineContext::psumStrips() const
{
    return static_cast<unsigned>(
        divCeil(layer.outWidth, psumStripWidth()));
}

TrafficCounters
EngineContext::offChipTraffic() const
{
    TrafficCounters total = dram.traffic();
    total.merge(cache.functionalDramTraffic());
    if (psumBuffer)
        total.merge(psumBuffer->functionalDramTraffic());
    total.merge(fastStreamTraffic);
    return total;
}

EngineContext::Snapshot
EngineContext::snapshot() const
{
    Snapshot snap;
    snap.dramLines = offChipTraffic().totalLines();
    const CacheStats &stats = cache.stats();
    snap.cacheAccesses = stats.hits + stats.misses;
    if (psumBuffer) {
        const CacheStats &psum_stats = psumBuffer->stats();
        snap.psumAccesses = psum_stats.hits + psum_stats.misses;
    }
    return snap;
}

Cycle
EngineContext::phaseCycles(Cycle compute, const Snapshot &before) const
{
    const Snapshot now_snap = snapshot();
    const std::uint64_t lines = now_snap.dramLines - before.dramLines;
    const std::uint64_t cache_acc =
        now_snap.cacheAccesses - before.cacheAccesses;
    const std::uint64_t psum_acc =
        now_snap.psumAccesses - before.psumAccesses;
    const Cycle dram_time =
        lines * cfg.dram.burstCycles / cfg.dram.channels;
    const Cycle cache_time = cache_acc / cfg.cacheLinesPerCycle;
    const Cycle psum_time = psum_acc / cfg.psumLinesPerCycle;
    return std::max({compute, dram_time, cache_time, psum_time});
}

void
EngineContext::streamDense(VertexId rows, std::uint32_t width, MemOp op,
                           TrafficClass cls)
{
    fastStreamTraffic.add(
        op, cls, static_cast<std::uint64_t>(rows) * denseRowLines(width));
}

void
EngineContext::pinDavc(Addr base, std::uint32_t width)
{
    // Pin the hottest vertices' rows until the DAVC budget is spent.
    const auto budget_lines = static_cast<std::uint64_t>(
        cfg.davcCacheFraction *
        static_cast<double>(cfg.cache.sizeBytes) / kCachelineBytes);
    const std::uint64_t row_lines = denseRowLines(width);
    const std::uint64_t stride = denseRowStride(width);
    std::uint64_t pinned = 0;
    // Degree order is a per-topology sweep artifact: sorting once per
    // dataset instead of once per (config, layer) pin pass.
    const auto order =
        StreamArtifactCache::instance().degreeOrder(*layer.graph);
    for (VertexId v : *order) {
        if (pinned + row_lines > budget_lines)
            break;
        const Addr row_base = base + static_cast<Addr>(v) * stride;
        for (std::uint64_t l = 0; l < row_lines; ++l) {
            cache.pin(row_base + l * kCachelineBytes,
                      TrafficClass::FeatureIn);
        }
        pinned += row_lines;
    }
}

namespace
{

/** Append one non-empty neighbour run and its sampled picks to
 *  @p ec's program: the run walks the layer's sampled fraction of
 *  its edges (at least one) at an even stride. */
void
appendSweepEntry(EngineContext &ec, unsigned engine, EdgeId edge_begin,
                 CsrGraph::NeighborRange nbrs)
{
    const auto available = static_cast<std::uint32_t>(nbrs.size());
    std::uint32_t walk = available;
    if (ec.layer.edgeSampleFraction < 1.0) {
        walk = std::clamp<std::uint32_t>(
            static_cast<std::uint32_t>(
                ec.layer.edgeSampleFraction * available + 0.5),
            1, available);
    }
    ec.sweepEntries.push_back(
        EngineContext::SweepEntry{engine, walk, edge_begin,
                                  ec.sweepPicks.size()});
    const double stride = static_cast<double>(available) / walk;
    for (std::uint32_t j = 0; j < walk; ++j) {
        ec.sweepPicks.push_back(nbrs[static_cast<std::size_t>(
            static_cast<double>(j) * stride)]);
    }
}

} // namespace

void
EngineContext::buildTileProgram(const TiledGraphView &view,
                                unsigned tile)
{
    const auto schedule = scheduleEngines(
        view.dstTileBegin(tile), view.dstTileEnd(tile), cfg.aggEngines,
        cfg.sac ? EngineScheduleKind::SacStrips
                : EngineScheduleKind::Chunked,
        cfg.sacStripHeight);
    std::size_t max_len = 0;
    for (const auto &order : schedule)
        max_len = std::max(max_len, order.size());

    sweepEntries.clear();
    sweepPicks.clear();
    sweepSrcBegin.clear();
    for (unsigned c = 0; c < view.numSrcTiles(); ++c) {
        sweepSrcBegin.push_back(sweepEntries.size());
        for (std::size_t idx = 0; idx < max_len; ++idx) {
            for (unsigned e = 0; e < cfg.aggEngines; ++e) {
                if (idx >= schedule[e].size())
                    continue;
                const VertexId v = schedule[e][idx];
                const auto nbrs = view.tileNeighbors(v, c);
                if (!nbrs.empty()) {
                    appendSweepEntry(*this, e, view.edgeBegin(v, c),
                                     nbrs);
                }
            }
        }
    }
    sweepSrcBegin.push_back(sweepEntries.size());
}

void
EngineContext::buildColumnProgram()
{
    const CsrGraph &graph = *layer.graph;
    sweepEntries.clear();
    sweepPicks.clear();
    sweepSrcBegin.assign(1, 0);
    for (VertexId u = 0; u < graph.numVertices(); ++u) {
        const auto nbrs = graph.neighbors(u);
        if (!nbrs.empty()) {
            appendSweepEntry(*this, u % cfg.aggEngines,
                             graph.rowPointers()[u], nbrs);
        }
    }
    sweepSrcBegin.push_back(sweepEntries.size());
}

EngineContext::TilePhase
EngineContext::sumTilePhases(const std::vector<TilePhase> &tiles)
{
    TilePhase sums;
    for (const TilePhase &tile : tiles) {
        sums.aggTime += tile.aggTime;
        sums.combTime += tile.combTime;
    }
    return sums;
}

Cycle
EngineContext::pipelineTiles(const std::vector<TilePhase> &tiles)
{
    if (tiles.empty())
        return 0;
    // Aggregation and combination overlap at block granularity: a
    // finished block of A.X rows streams into the systolic array
    // while the aggregators continue (SV-F). The slower phase sets
    // the pace; the pipeline fill is one sub-block of the first
    // tile (the psum buffers hold several blocks per tile).
    const TilePhase sums = sumTilePhases(tiles);
    constexpr unsigned kBlocksPerTile = 8;
    const Cycle fill = std::min(tiles.front().aggTime,
                                tiles.front().combTime) /
                       kBlocksPerTile;
    return std::max(sums.aggTime, sums.combTime) + fill;
}

} // namespace sgcn
