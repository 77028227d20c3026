/**
 * @file
 * Helpers shared by the two row-product dataflows (aggregation-first
 * and combination-first): the fast-mode replay of one destination
 * tile's sweep program, and the per-tile output pass (residual
 * streams plus the compressed X^{l+1} writes) that both execution
 * modes build.
 */

#ifndef SGCN_ACCEL_DATAFLOW_ROW_PRODUCT_COMMON_HH
#define SGCN_ACCEL_DATAFLOW_ROW_PRODUCT_COMMON_HH

#include <algorithm>

#include "accel/engine_context.hh"
#include "accel/result.hh"

namespace sgcn
{

/**
 * Aggregation sweep of one destination tile (fast mode): builds the
 * tile's sweep program, replays it through the functional cache,
 * counts its topology and feature-slice traffic and returns the
 * bottleneck engine's compute cycles.
 */
Cycle sweepTileFast(EngineContext &ec, const TiledGraphView &view,
                    unsigned tile, const FeatureLayout &layout,
                    TrafficClass cls);

/**
 * One destination tile's output pass on @p sink: residual S^l read /
 * S^{l+1} write plus the X^{l+1} row writes of rows [begin, end).
 * The sink is a StreamDma in timing mode and a StreamLineCounter in
 * fast mode.
 *
 * @return the serialized write lines (EngineContext::writeOutputRows)
 */
template <typename Sink>
std::uint64_t
tileOutputPass(const EngineContext &ec, Sink &sink, VertexId begin,
               VertexId end)
{
    // Chip shards never drain their halo tail rows.
    end = std::min(end, ec.ownedEnd());
    if (begin >= end)
        return 0;
    const std::uint64_t s_lines =
        static_cast<std::uint64_t>(end - begin) *
        ec.denseRowLines(ec.layer.outWidth);
    const Addr s_base = AddressMap::kResidualBase +
                        static_cast<Addr>(begin) *
                            denseRowStride(ec.layer.outWidth);
    if (ec.layer.residual && !ec.layer.isInputLayer) {
        sink.addRegion(s_base, s_lines, MemOp::Read,
                       TrafficClass::FeatureIn);
    }
    if (ec.layer.residual) {
        sink.addRegion(s_base, s_lines, MemOp::Write,
                       TrafficClass::FeatureOut);
    }
    return ec.writeOutputRows(sink, begin, end);
}

/**
 * Install a row-product layer's tile spans: the per-tile
 * @p consume windows and @p ready cycles when the destination
 * tiling is at least kMinTileSpans fine, otherwise a
 * kMinTileSpans-way uniform subdivision of @p consume_phase and the
 * output-drain phase. The fallback is sound because the output DMAs
 * stream rows in order — availability is meaningful below tile
 * granularity — and it keeps small fixtures (a handful of tiles)
 * from degenerating to whole-layer gating.
 */
void setRowProductTileSpans(LayerSchedule &schedule,
                            PhaseSpan consume_phase,
                            std::vector<PhaseSpan> consume,
                            std::vector<Cycle> ready);

} // namespace sgcn

#endif // SGCN_ACCEL_DATAFLOW_ROW_PRODUCT_COMMON_HH
