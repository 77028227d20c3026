/**
 * @file
 * Helpers shared by the two row-product dataflows (aggregation-first
 * and combination-first): the fast-mode replay of one destination
 * tile's sweep program, its timing-mode pick policy, the per-tile
 * output pass (residual streams plus the compressed X^{l+1} writes)
 * that both execution modes build, and the traces the timing tile
 * sequences keep for the layer schedule.
 */

#ifndef SGCN_ACCEL_DATAFLOW_ROW_PRODUCT_COMMON_HH
#define SGCN_ACCEL_DATAFLOW_ROW_PRODUCT_COMMON_HH

#include <algorithm>
#include <vector>

#include "accel/engine_context.hh"
#include "accel/result.hh"
#include "accel/timing/timing_sweep.hh"

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
 * The row product's pick policy for TimingSweep, over one
 * destination tile's program: each engine keeps its own cursor,
 * since engines run ahead of each other into different source tiles,
 * and takes its runs in the order of the fast sweep's per-slice walk
 * (source tile, slice, run, pick). A pick reads one feature slice
 * through the shared cache; a run's first pick of slice 0 also
 * fetches its topology, and later slices replay the edge buffer
 * (Fig. 5).
 */
class RowProductPicks
{
  public:
    RowProductPicks(EngineContext &ec, const FeatureLayout &layout,
                    TrafficClass cls);

    void rewind();
    bool next(unsigned engine, SweepItem &item);
    void issue(const AccessPlan &data, MemCallback done);

  private:
    EngineContext &ec;
    const FeatureLayout &layout;
    TrafficClass cls;
    std::vector<SweepCursor> cursors;
};

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

/** Observed [first start, last end] of one phase across tiles. */
struct PhaseTrace
{
    Cycle start = 0;
    Cycle end = 0;
    bool seen = false;

    void
    markStart(Cycle at)
    {
        if (!seen) {
            start = at;
            end = at;
            seen = true;
        }
    }

    void
    markEnd(Cycle at)
    {
        end = std::max(end, at);
    }

    /** The observed span; an unseen phase pins to @p fallback so it
     *  stays well-ordered inside the layer. */
    PhaseSpan
    span(Cycle fallback = 0) const
    {
        return seen ? PhaseSpan{start, end}
                    : PhaseSpan{fallback, fallback};
    }
};

/**
 * Observed per-tile event times of a timing tile sequence, in the
 * form setRowProductTileSpans takes them. Output DMAs of different
 * tiles share the DRAM channels and may complete out of order;
 * LayerSchedule::setTileSpans re-imposes the monotone per-tile
 * invariants.
 */
struct TileTraces
{
    std::vector<PhaseSpan> consume;
    std::vector<Cycle> ready;

    explicit TileTraces(unsigned tiles) : consume(tiles), ready(tiles) {}

    void
    markConsumeStart(unsigned tile, Cycle at)
    {
        consume[tile] = PhaseSpan{at, at};
    }

    void
    markConsumeEnd(unsigned tile, Cycle at)
    {
        consume[tile].end = std::max(consume[tile].end, at);
    }

    void
    markReady(unsigned tile, Cycle at)
    {
        ready[tile] = std::max(ready[tile], at);
    }
};

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
