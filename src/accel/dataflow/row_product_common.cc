#include "accel/dataflow/row_product_common.hh"

#include <algorithm>

#include "core/sac.hh"

namespace sgcn
{

Cycle
sweepTileFast(EngineContext &ec, const TiledGraphView &view,
              unsigned tile, const FeatureLayout &layout,
              TrafficClass cls)
{
    const VertexId tile_begin = view.dstTileBegin(tile);
    const VertexId tile_end = view.dstTileEnd(tile);
    const auto schedule = scheduleEngines(
        tile_begin, tile_end, ec.cfg.aggEngines,
        ec.cfg.sac ? EngineScheduleKind::SacStrips
                   : EngineScheduleKind::Chunked,
        ec.cfg.sacStripHeight);

    std::vector<Cycle> engine_cycles(ec.cfg.aggEngines, 0);
    std::size_t max_len = 0;
    for (const auto &s : schedule)
        max_len = std::max(max_len, s.size());

    // Source tiles outermost: the tile's edges are fetched once into
    // the edge buffer (Fig. 5) and replayed for every feature slice.
    const unsigned slices = layout.numSlices();
    auto &entries = ec.sweepEntries;
    auto &picks = ec.sweepPicks;
    for (unsigned c = 0; c < view.numSrcTiles(); ++c) {
        // Resolve each (vertex, src-tile) neighbour run and its
        // sampled picks once per source tile — the edge-buffer
        // replay — instead of re-resolving the span for every slice.
        // The entry order is the engines' round-robin at vertex
        // granularity, which approximates their concurrency in the
        // shared cache's access order.
        entries.clear();
        picks.clear();
        for (std::size_t idx = 0; idx < max_len; ++idx) {
            for (unsigned e = 0; e < ec.cfg.aggEngines; ++e) {
                if (idx >= schedule[e].size())
                    continue;
                const VertexId v = schedule[e][idx];
                const auto nbrs = view.tileNeighbors(v, c);
                if (nbrs.empty())
                    continue;
                EngineContext::SweepEntry entry;
                entry.engine = e;
                entry.edgeBegin = view.edgeBegin(v, c);
                entry.walk = ec.sampledEdges(
                    static_cast<std::uint32_t>(nbrs.size()));
                entry.pickBegin = picks.size();
                const double stride =
                    static_cast<double>(nbrs.size()) / entry.walk;
                for (std::uint32_t j = 0; j < entry.walk; ++j) {
                    const auto pick = static_cast<std::size_t>(
                        static_cast<double>(j) * stride);
                    picks.push_back(nbrs[pick]);
                }
                entry.pickEnd = picks.size();
                entries.push_back(entry);
            }
        }

        const FeatureLayout::SlicePlan *table = layout.sliceTable();
        for (unsigned s = 0; s < slices; ++s) {
            // Distance-1 software pipeline over the tile's pick
            // stream: prefetch pick i+1's tag sets while pick i's
            // lines run through the functional cache. Access order
            // is exactly the plain loop's.
            std::size_t cursor = 0;
            for (const EngineContext::SweepEntry &entry : entries) {
                if (s == 0) {
                    // Topology fetch for this (v, c) edge run; later
                    // slices replay the edge buffer.
                    AccessPlan topo;
                    topo.addBytes(
                        AddressMap::kTopologyBase +
                            entry.edgeBegin * ec.layer.edgeBytes,
                        static_cast<std::uint64_t>(entry.walk) *
                            ec.layer.edgeBytes);
                    ec.streamPlan(topo, MemOp::Read,
                                  TrafficClass::Topology);
                }
                Cycle compute = 0;
                std::uint64_t macs = 0;
                for (std::size_t i = entry.pickBegin;
                     i < entry.pickEnd; ++i) {
                    const FeatureLayout::SlicePlan &pe =
                        table[static_cast<std::size_t>(picks[i]) *
                                  slices + s];
                    if (cursor + 1 < picks.size()) {
                        const FeatureLayout::SlicePlan &npe =
                            table[static_cast<std::size_t>(
                                      picks[cursor + 1]) *
                                      slices + s];
                        if (npe.lines !=
                            FeatureLayout::SlicePlan::kMultiRun) {
                            Addr line = npe.addr;
                            for (std::uint32_t j = 0; j < npe.lines;
                                 ++j, line += kCachelineBytes)
                                ec.cache.prefetchSet(line);
                        }
                    }
                    if (pe.lines !=
                        FeatureLayout::SlicePlan::kMultiRun) {
                        ec.cache.accessRunFunctional(
                            pe.addr, pe.lines, MemOp::Read, cls);
                    } else {
                        ec.cache.accessPlanFunctional(
                            layout.planSliceRead(picks[i], s),
                            MemOp::Read, cls);
                    }
                    compute += std::max<Cycle>(
                        1, divCeil(pe.values, ec.cfg.simdLanes));
                    macs += pe.values;
                    ++cursor;
                }
                engine_cycles[entry.engine] += compute;
                ec.aggMacs += macs;
            }
        }
    }
    return *std::max_element(engine_cycles.begin(),
                             engine_cycles.end());
}

std::uint64_t
streamTileOutputFast(EngineContext &ec, VertexId begin, VertexId end,
                     const FeatureLayout &out)
{
    // Chip shards never drain their halo tail rows.
    end = std::min(end, ec.ownedEnd());
    if (begin >= end)
        return 0;
    const VertexId rows = end - begin;
    const std::uint64_t s_lines = ec.denseRowLines(ec.layer.outWidth);
    if (ec.layer.residual && !ec.layer.isInputLayer) {
        ec.fastStreamTraffic.add(MemOp::Read, TrafficClass::FeatureIn,
                                 rows * s_lines);
    }
    if (ec.layer.residual) {
        ec.fastStreamTraffic.add(MemOp::Write, TrafficClass::FeatureOut,
                                 rows * s_lines);
    }
    std::uint64_t serialized_write_lines = 0;
    for (VertexId v = begin; v < end; ++v) {
        const AccessPlan write = out.planRowWrite(v);
        ec.streamPlan(write, MemOp::Write, TrafficClass::FeatureOut);
        if (!out.supportsParallelWrite())
            serialized_write_lines += write.totalLines();
    }
    return serialized_write_lines;
}

void
queueTileOutputDma(EngineContext &ec, StreamDma &dma, VertexId begin,
                   VertexId end, const FeatureLayout &out)
{
    // Chip shards never drain their halo tail rows.
    end = std::min(end, ec.ownedEnd());
    if (begin >= end)
        return;
    const VertexId rows = end - begin;
    const std::uint64_t s_lines = ec.denseRowLines(ec.layer.outWidth);
    const std::uint64_t s_stride = denseRowStride(ec.layer.outWidth);
    if (ec.layer.residual && !ec.layer.isInputLayer) {
        dma.addRegion(AddressMap::kResidualBase +
                          static_cast<Addr>(begin) * s_stride,
                      rows * s_lines, MemOp::Read,
                      TrafficClass::FeatureIn);
    }
    if (ec.layer.residual) {
        dma.addRegion(AddressMap::kResidualBase +
                          static_cast<Addr>(begin) * s_stride,
                      rows * s_lines, MemOp::Write,
                      TrafficClass::FeatureOut);
    }
    for (VertexId v = begin; v < end; ++v) {
        dma.addPlan(out.planRowWrite(v), MemOp::Write,
                    TrafficClass::FeatureOut);
    }
}

void
setRowProductTileSpans(LayerSchedule &schedule,
                       PhaseSpan consume_phase,
                       std::vector<PhaseSpan> consume,
                       std::vector<Cycle> ready)
{
    if (consume.size() >= kMinTileSpans &&
        ready.size() >= kMinTileSpans) {
        schedule.setTileSpans(std::move(consume), std::move(ready));
        return;
    }
    const std::vector<double> uniform(kMinTileSpans, 1.0);
    schedule.setTileSpans(
        subdividePhase(consume_phase, uniform),
        phaseEnds(subdividePhase(schedule.outputDrain, uniform)));
}

} // namespace sgcn
