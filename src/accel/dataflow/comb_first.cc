#include "accel/dataflow/dataflows.hh"

#include <algorithm>
#include <deque>
#include <functional>

#include "accel/dataflow/row_product_common.hh"
#include "accel/stream_artifacts.hh"
#include "accel/timing/stream_dma.hh"

namespace sgcn
{

namespace
{

/** Phase 1's streaming GEMM X^l . W^l over every row. Besides the
 *  personality's own zero-skipping, it skips zeros when the layer
 *  readsSparseInput. Counts its MACs; returns the combination
 *  engines' cycles. */
Cycle
combinePhase1(EngineContext &ec)
{
    return ec.combineRows(
        ec.layer.graph->numVertices(),
        ec.cfg.zeroSkipCombination ||
            readsSparseInput(ec.cfg, ec.layer.isInputLayer,
                             ec.layer.inSparsity));
}

/** The dense X.W matrix phase 2 aggregates. The full mask and the
 *  dense psum-region layout are config-independent sweep artifacts
 *  (every comb-first personality aggregates the same X.W shape). */
std::shared_ptr<const FeatureLayout>
xwLayout(const EngineContext &ec)
{
    auto &artifacts = StreamArtifactCache::instance();
    return artifacts.preparedLayout(
        FormatKind::Dense, ec.layer.outWidth, ec.cfg.sliceC, 0.5,
        AddressMap::kPsumBase,
        artifacts.fullMask(ec.layer.graph->numVertices(),
                           ec.layer.outWidth));
}

void
runFast(EngineContext &ec, LayerResult &result)
{
    const VertexId n = ec.layer.graph->numVertices();

    // Phase 1: combination as a streaming pass. X^l rows stream in,
    // X^l . W^l rows stream out to the psum region. The row reads
    // only feed the stream-traffic counters (no cache model), so the
    // per-row plans collapse to one line total.
    const EngineContext::Snapshot comb_before = ec.snapshot();
    ec.fastStreamTraffic.add(MemOp::Read, TrafficClass::FeatureIn,
                             ec.layer.inLayout->totalRowReadLines());
    ec.streamDense(n, ec.layer.outWidth, MemOp::Write,
                   TrafficClass::PartialSum);
    const Cycle comb_time =
        ec.phaseCycles(combinePhase1(ec), comb_before);
    result.combCycles += comb_time;

    // Phase 2: aggregation over the dense X.W matrix, then the
    // output pass (residual add + activation + write).
    const auto xw = xwLayout(ec);
    if (ec.cfg.davc)
        ec.pinDavc(AddressMap::kPsumBase, ec.layer.outWidth);
    const auto view = ec.sweepView(*xw, ec.layer.outWidth);

    StreamLineCounter stream{ec.fastStreamTraffic};
    std::vector<EngineContext::TilePhase> tiles;
    std::vector<double> row_weights;
    tiles.reserve(view->numDstTiles());
    row_weights.reserve(view->numDstTiles());
    for (unsigned t = 0; t < view->numDstTiles(); ++t) {
        const VertexId tile_begin = view->dstTileBegin(t);
        const VertexId tile_end = view->dstTileEnd(t);
        row_weights.push_back(
            static_cast<double>(tile_end - tile_begin));

        EngineContext::TilePhase phase;
        const EngineContext::Snapshot agg_before = ec.snapshot();
        const Cycle compute =
            sweepTileFast(ec, *view, t, *xw, TrafficClass::FeatureIn);
        phase.aggTime = ec.phaseCycles(compute, agg_before);

        const EngineContext::Snapshot out_before = ec.snapshot();
        const std::uint64_t serialized_write_lines =
            tileOutputPass(ec, stream, tile_begin, tile_end);
        phase.combTime = ec.phaseCycles(0, out_before) +
                         serialized_write_lines * ec.cfg.dram.burstCycles;
        tiles.push_back(phase);
        result.aggCycles += phase.aggTime;
        result.combCycles += phase.combTime;
    }

    ec.cache.unpinAll();
    result.cycles = comb_time + EngineContext::pipelineTiles(tiles);

    // Phase timeline: the streaming combination runs first, the
    // tiled aggregation follows, and the drain is the final tile's
    // output pass (paced to end with the layer).
    const Cycle agg_total =
        EngineContext::sumTilePhases(tiles).aggTime;
    result.schedule.combination = {0, comb_time};
    result.schedule.aggregation = {comb_time, comb_time + agg_total};
    result.schedule.outputDrain = {
        result.cycles - (tiles.empty() ? 0 : tiles.back().combTime),
        result.cycles};

    // Per-tile availability: X^l is consumed once, in row order, by
    // the phase-1 streaming combination, so tile t's input slice is
    // read across a row-proportional slice of the combination span;
    // its output pass retires across the drain window. Row-order
    // input consumption is what lets a per-tile pipeline start this
    // dataflow before its producer has drained every tile.
    std::vector<double> out_weights;
    out_weights.reserve(tiles.size());
    for (const EngineContext::TilePhase &phase : tiles)
        out_weights.push_back(static_cast<double>(phase.combTime));
    setRowProductTileSpans(
        result.schedule, result.schedule.combination,
        subdividePhase(result.schedule.combination, row_weights),
        phaseEnds(subdividePhase(result.schedule.outputDrain,
                                 out_weights)));
    result.schedule.sequentialInput = true;
}

void
runTiming(EngineContext &ec, LayerResult &result)
{
    const VertexId n = ec.layer.graph->numVertices();
    const FeatureLayout &in = *ec.layer.inLayout;

    // Phase 1: streaming combination.
    StreamDma phase1(ec);
    for (VertexId v = 0; v < n; ++v) {
        phase1.addPlan(in.planRowRead(v), MemOp::Read,
                       TrafficClass::FeatureIn);
    }
    phase1.addRegion(AddressMap::kPsumBase,
                     static_cast<std::uint64_t>(n) *
                         ec.denseRowLines(ec.layer.outWidth),
                     MemOp::Write, TrafficClass::PartialSum);
    const Cycle comb_compute = combinePhase1(ec);

    // Phase 2: the aggregation sweep over X.W, tile by tile, each
    // tile's output pass draining behind it.
    const auto xw = xwLayout(ec);
    const auto view = ec.sweepView(*xw, ec.layer.outWidth);
    const unsigned tiles = view->numDstTiles();
    Cycle comb_end = 0;
    PhaseTrace agg_trace;
    PhaseTrace drain_trace;
    TileTraces tile_traces(tiles);
    TimingSweep<RowProductPicks> sweep(
        ec, RowProductPicks(ec, *xw, TrafficClass::FeatureIn));
    std::deque<StreamDma> drains;

    // The callbacks capture this frame's locals by reference: the
    // events.run() below drains every event before it returns.
    std::function<void(unsigned)> start_tile = [&](unsigned t) {
        const Cycle agg_start = ec.events.now();
        agg_trace.markStart(agg_start);
        ec.buildTileProgram(*view, t);
        sweep.start([&, t, agg_start] {
            result.aggCycles += ec.events.now() - agg_start;
            agg_trace.markEnd(ec.events.now());
            drain_trace.markStart(ec.events.now());
            StreamDma &dma = drains.emplace_back(ec);
            tileOutputPass(ec, dma, view->dstTileBegin(t),
                           view->dstTileEnd(t));
            dma.start([&, t] {
                drain_trace.markEnd(ec.events.now());
                tile_traces.markReady(t, ec.events.now());
            });
            // The next tile restarts the sweep from inside its done
            // callback, with no event hop: one would reorder
            // same-cycle events.
            if (t + 1 < tiles)
                start_tile(t + 1);
        });
    };

    phase1.start([&] {
        comb_end = std::max(ec.events.now(), comb_compute);
        result.combCycles += comb_end;
        ec.events.schedule(comb_end, [&] {
            if (ec.cfg.davc)
                ec.pinDavc(AddressMap::kPsumBase, ec.layer.outWidth);
            start_tile(0);
        });
    });
    ec.events.run();
    ec.cache.unpinAll();
    result.cycles = ec.events.now();
    result.schedule.combination = {0, comb_end};
    result.schedule.aggregation = agg_trace.span();
    result.schedule.outputDrain = drain_trace.span(result.cycles);
    result.schedule.outputDrain.end = result.cycles;
    // Per-tile availability: input consumption is the phase-1 stream
    // (row order, subdivided row-proportionally across the observed
    // combination span); output readiness is each tile's observed
    // drain-DMA completion.
    std::vector<double> row_weights;
    row_weights.reserve(tiles);
    for (unsigned t = 0; t < tiles; ++t) {
        row_weights.push_back(static_cast<double>(
            view->dstTileEnd(t) - view->dstTileBegin(t)));
    }
    setRowProductTileSpans(
        result.schedule, result.schedule.combination,
        subdividePhase(result.schedule.combination, row_weights),
        std::move(tile_traces.ready));
    result.schedule.sequentialInput = true;
}

} // namespace

void
runCombFirst(EngineContext &ec, LayerResult &result)
{
    if (ec.mode == ExecutionMode::Fast)
        runFast(ec, result);
    else
        runTiming(ec, result);
}

} // namespace sgcn
