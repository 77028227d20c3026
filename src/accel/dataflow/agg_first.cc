#include "accel/dataflow/dataflows.hh"

#include <algorithm>
#include <deque>
#include <functional>

#include "accel/dataflow/row_product_common.hh"
#include "accel/timing/stream_dma.hh"

namespace sgcn
{

namespace
{

/** Combination of destination tile @p t: (rows x inWidth) .
 *  (inWidth x outWidth) on the systolic arrays over its owned rows.
 *  Halo tail rows are empty sources: they sweep for free and produce
 *  no output. Residual init + ReLU + compression are fused at the
 *  output (SV-E/SV-F), so the only extra traffic is the tile's
 *  output pass. */
Cycle
combineTile(EngineContext &ec, const TiledGraphView &view, unsigned t)
{
    const VertexId begin = view.dstTileBegin(t);
    const VertexId end = std::min(view.dstTileEnd(t), ec.ownedEnd());
    return ec.combineRows(end > begin ? end - begin : 0,
                          ec.cfg.zeroSkipCombination);
}

void
runFast(EngineContext &ec, const TiledGraphView &view,
        LayerResult &result)
{
    StreamLineCounter stream{ec.fastStreamTraffic};
    std::vector<EngineContext::TilePhase> tiles;
    tiles.reserve(view.numDstTiles());

    for (unsigned t = 0; t < view.numDstTiles(); ++t) {
        EngineContext::TilePhase phase;
        const EngineContext::Snapshot agg_before = ec.snapshot();
        const Cycle compute = sweepTileFast(
            ec, view, t, *ec.layer.inLayout, TrafficClass::FeatureIn);
        phase.aggTime = ec.phaseCycles(compute, agg_before);

        const EngineContext::Snapshot comb_before = ec.snapshot();
        const Cycle comb_cycles = combineTile(ec, view, t);
        const std::uint64_t serialized_write_lines = tileOutputPass(
            ec, stream, view.dstTileBegin(t), view.dstTileEnd(t));
        phase.combTime = ec.phaseCycles(comb_cycles, comb_before) +
                         serialized_write_lines * ec.cfg.dram.burstCycles;
        tiles.push_back(phase);
        result.aggCycles += phase.aggTime;
        result.combCycles += phase.combTime;
    }
    result.cycles = EngineContext::pipelineTiles(tiles);

    // Phase timeline under the tile pipeline: aggregation streams
    // from cycle 0, combination is paced to end with the layer, and
    // the drain is the final tile's fused output pass.
    const EngineContext::TilePhase sums =
        EngineContext::sumTilePhases(tiles);
    result.schedule.aggregation = {0, sums.aggTime};
    result.schedule.combination = {result.cycles - sums.combTime,
                                   result.cycles};
    result.schedule.outputDrain = {
        result.cycles - (tiles.empty() ? 0 : tiles.back().combTime),
        result.cycles};

    // Per-tile availability, synthesized from the analytic per-tile
    // costs: tile t consumes its input slice across the aggregation
    // span paced by its sweep cost, and its fused output pass
    // retires across the drain window paced by its output cost.
    // Aggregation gathers arbitrary source rows, so consumers of the
    // next layer cannot stream-gate on this layer's input side.
    std::vector<double> agg_weights, out_weights;
    agg_weights.reserve(tiles.size());
    out_weights.reserve(tiles.size());
    for (const EngineContext::TilePhase &phase : tiles) {
        agg_weights.push_back(static_cast<double>(phase.aggTime));
        out_weights.push_back(static_cast<double>(phase.combTime));
    }
    setRowProductTileSpans(
        result.schedule, result.schedule.aggregation,
        subdividePhase(result.schedule.aggregation, agg_weights),
        phaseEnds(subdividePhase(result.schedule.outputDrain,
                                 out_weights)));
    result.schedule.sequentialInput = false;
}

void
runTiming(EngineContext &ec, const TiledGraphView &view,
          LayerResult &result)
{
    const unsigned tiles = view.numDstTiles();
    std::vector<Cycle> comb_done(tiles, 0);
    Cycle comb_free_at = 0;
    PhaseTrace agg_trace;
    PhaseTrace comb_trace;
    PhaseTrace drain_trace;
    TileTraces tile_traces(tiles);
    TimingSweep<RowProductPicks> sweep(
        ec, RowProductPicks(ec, *ec.layer.inLayout,
                            TrafficClass::FeatureIn));
    std::deque<StreamDma> drains;

    // The callbacks capture this frame's locals by reference: the
    // events.run() below drains every event before it returns. A
    // scheduled closure captures one named step and a tile index,
    // which fits the inline event budget; the steps' own captures
    // (a reference per local) would not.
    std::function<void(unsigned)> start_tile;
    const auto drain = [&](unsigned t) {
        drain_trace.markStart(ec.events.now());
        StreamDma &dma = drains.emplace_back(ec);
        tileOutputPass(ec, dma, view.dstTileBegin(t), view.dstTileEnd(t));
        dma.start([&, t] {
            drain_trace.markEnd(ec.events.now());
            tile_traces.markReady(t, ec.events.now());
        });
    };
    const auto aggregate = [&](unsigned t) {
        const Cycle agg_start = ec.events.now();
        agg_trace.markStart(agg_start);
        tile_traces.markConsumeStart(t, agg_start);
        ec.buildTileProgram(view, t);
        sweep.start([&, t, agg_start] {
            result.aggCycles += ec.events.now() - agg_start;
            agg_trace.markEnd(ec.events.now());
            tile_traces.markConsumeEnd(t, ec.events.now());
            const Cycle comb_cycles = combineTile(ec, view, t);
            const Cycle comb_start =
                std::max(ec.events.now(), comb_free_at);
            comb_free_at = comb_start + comb_cycles;
            comb_done[t] = comb_free_at;
            result.combCycles += comb_cycles;
            comb_trace.markStart(comb_start);
            comb_trace.markEnd(comb_free_at);
            ec.events.schedule(comb_free_at, [&drain, t] { drain(t); });
            if (t + 1 < tiles)
                start_tile(t + 1);
        });
    };
    start_tile = [&](unsigned t) {
        // Ping-pong psum buffers: aggregation of tile t may only
        // start once combination of tile t-2 has drained its buffer.
        const Cycle gate = t >= 2 ? comb_done[t - 2] : 0;
        ec.events.schedule(std::max(ec.events.now(), gate),
                           [&aggregate, t] { aggregate(t); });
    };
    start_tile(0);
    ec.events.run();
    result.cycles = std::max(ec.events.now(), comb_free_at);
    result.schedule.aggregation = agg_trace.span();
    result.schedule.combination = comb_trace.span();
    // The drain owns the layer's tail: the last event in the queue
    // is its final write-back (or the combination engine freeing).
    result.schedule.outputDrain = drain_trace.span(result.cycles);
    result.schedule.outputDrain.end = result.cycles;
    // Observed per-tile windows: consume = the tile's aggregation
    // sweep, ready = its output DMA draining (clamped monotone —
    // DMAs share the DRAM channels and may finish out of order).
    setRowProductTileSpans(result.schedule,
                           result.schedule.aggregation,
                           std::move(tile_traces.consume),
                           std::move(tile_traces.ready));
    result.schedule.sequentialInput = false;
}

} // namespace

void
runAggFirst(EngineContext &ec, LayerResult &result)
{
    const auto view =
        ec.sweepView(*ec.layer.inLayout, ec.layer.inWidth);
    if (ec.mode == ExecutionMode::Fast) {
        // EnGN's degree-aware vertex cache pins hot feature rows for
        // the whole layer (dense layout only). Fast mode only: the
        // timing engines have never pinned them, so timing-mode EnGN
        // runs HyGCN's intermediate layers (ROADMAP item 3), and
        // pinning there changes model output.
        if (ec.cfg.davc && ec.layer.inLayout->kind() == FormatKind::Dense)
            ec.pinDavc(AddressMap::kFeatureInBase, ec.layer.inWidth);
        runFast(ec, *view, result);
        ec.cache.unpinAll();
    } else {
        runTiming(ec, *view, result);
    }
}

} // namespace sgcn
