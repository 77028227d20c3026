#include "accel/dataflow/dataflows.hh"

#include <algorithm>

#include "accel/timing/stream_dma.hh"
#include "accel/timing/timing_sweep.hh"
#include "sim/logging.hh"

namespace sgcn
{

namespace
{

/** Synthesis granularity of the column-product tile spans: the
 *  dataflow has no destination tiles, but its input stream and its
 *  X^{l+1} write-out are both row-ordered, so both sides of the
 *  per-tile pipeline gate are well-defined at any granularity. */
constexpr unsigned kColumnProductTileSpans = 8;

/**
 * Column-product per-tile availability, shared by both execution
 * modes: strip 0's pass over X^l covers the input once in row order
 * across 1/strips of the combination span (later strips re-read
 * rows that are necessarily older), and the activated X^{l+1}
 * streams out in row order across the drain window after the
 * accumulator-bank flush.
 */
void
synthesizeColumnProductSpans(LayerSchedule &schedule, unsigned strips)
{
    const PhaseSpan comb = schedule.combination;
    const PhaseSpan first_pass{
        comb.start,
        comb.start + comb.duration() / std::max(1u, strips)};
    const std::vector<double> uniform(kColumnProductTileSpans, 1.0);
    schedule.setTileSpans(
        subdividePhase(first_pass, uniform),
        phaseEnds(subdividePhase(schedule.outputDrain, uniform)));
    schedule.sequentialInput = true;
}

void
runFast(EngineContext &ec, LayerResult &result)
{
    const VertexId n = ec.layer.graph->numVertices();

    // Combination: input feature rows stream in source order with
    // zero-skipping in the datapath (AWB-GCN); one X pass per
    // partial-sum strip, recomputing that strip of X.W on the fly.
    // The row reads only feed the stream-traffic counters, so the
    // per-strip row loops collapse to strips x the memoized total.
    const std::uint32_t strip_width = ec.psumStripWidth();
    const unsigned strips = ec.psumStrips();
    const EngineContext::Snapshot comb_before = ec.snapshot();
    ec.fastStreamTraffic.add(MemOp::Read, TrafficClass::FeatureIn,
                             static_cast<std::uint64_t>(strips) *
                                 ec.layer.inLayout->totalRowReadLines());
    const Cycle comb_time = ec.phaseCycles(
        ec.combineRows(n, ec.cfg.zeroSkipCombination), comb_before);
    result.combCycles += comb_time;

    // Residual initialization of the partial sums (owned rows only:
    // chip shards never accumulate outputs for their halo tail).
    const VertexId owned = ec.ownedEnd();
    const EngineContext::Snapshot agg_before = ec.snapshot();
    if (ec.layer.residual && !ec.layer.isInputLayer) {
        ec.streamDense(owned, ec.layer.outWidth, MemOp::Read,
                       TrafficClass::FeatureIn);
    }

    // Aggregation: column product in feature-dimension strips (the
    // distributed accumulator banks of the real design). Within a
    // strip, source vertices stream in order and every out-edge
    // read-modify-writes the destination's partial-sum strip — the
    // dominating traffic of Fig. 14. The strip keeps a community's
    // psum working set cacheable; the price is re-walking the
    // topology once per strip.
    const std::uint64_t psum_stride = denseRowStride(ec.layer.outWidth);
    std::vector<Cycle> engine_cycles(ec.cfg.aggEngines, 0);

    // The program's walk depends only on the topology, so every
    // strip replays it. The topology stream only feeds counters, so
    // it collapses to one total per pass.
    ec.buildColumnProgram();
    const auto &entries = ec.sweepEntries;
    const auto &picks = ec.sweepPicks;
    std::uint64_t topo_lines_per_pass = 0;
    for (const EngineContext::SweepEntry &entry : entries)
        topo_lines_per_pass += ec.topologyPlan(entry).totalLines();

    // Strips in lockstep (Cache::lockstep) read-modify-write their
    // first line and count it for the strip's lines. The flush then
    // counts each strip's dirty lines once per line of a strip, so
    // the strips must be equal.
    Cache &psum = *ec.psumBuffer;
    const std::uint64_t strip_lines = linesTouched(
        0, static_cast<std::uint64_t>(strip_width) * kFeatureBytes);
    const bool lockstep =
        ec.layer.outWidth % strip_width == 0 &&
        psum.lockstep(AddressMap::kPsumBase, psum_stride,
                      static_cast<std::uint64_t>(strip_width) *
                          kFeatureBytes);
    for (unsigned strip = 0; strip < strips; ++strip) {
        const std::uint32_t begin_col = strip * strip_width;
        const std::uint32_t end_col =
            std::min(begin_col + strip_width, ec.layer.outWidth);
        const std::uint64_t strip_bytes =
            static_cast<std::uint64_t>(end_col - begin_col) *
            kFeatureBytes;
        ec.fastStreamTraffic.add(MemOp::Read, TrafficClass::Topology,
                                 topo_lines_per_pass);
        const Cycle pick_cost = std::max<Cycle>(
            1, divCeil(end_col - begin_col, ec.cfg.simdLanes));
        const Cache::Tally mark = psum.tally();
        for (const EngineContext::SweepEntry &entry : entries) {
            const std::size_t pick_end = entry.pickBegin + entry.walk;
            for (std::size_t i = entry.pickBegin; i < pick_end; ++i) {
                const Addr strip_addr =
                    AddressMap::kPsumBase +
                    static_cast<Addr>(picks[i]) * psum_stride +
                    static_cast<Addr>(begin_col) * kFeatureBytes;
                psum.accessRunRmwFunctional(
                    alignDown(strip_addr, kCachelineBytes),
                    lockstep ? 1
                             : static_cast<std::uint32_t>(linesTouched(
                                   strip_addr, strip_bytes)),
                    TrafficClass::PartialSum);
            }
            engine_cycles[entry.engine] +=
                entry.walk * pick_cost;
            ec.aggMacs += static_cast<std::uint64_t>(entry.walk) *
                          (end_col - begin_col);
        }
        if (lockstep)
            psum.repeatSince(mark, strip_lines - 1);
    }
    // Dirty partial sums flush as the S^{l+1} writeback...
    const EngineContext::Snapshot drain_before = ec.snapshot();
    const Cache::Tally flush_mark = psum.tally();
    psum.flush();
    if (lockstep)
        psum.repeatSince(flush_mark, strip_lines - 1);
    // ...and X^{l+1} is emitted once after activation.
    StreamLineCounter stream{ec.fastStreamTraffic};
    const std::uint64_t serialized_write_lines =
        ec.writeOutputRows(stream, 0, owned);
    const Cycle agg_time =
        serialized_write_lines * ec.cfg.dram.burstCycles +
        ec.phaseCycles(*std::max_element(engine_cycles.begin(),
                                         engine_cycles.end()),
                       agg_before);
    result.aggCycles += agg_time;

    // Combination and aggregation are pipelined end to end.
    result.cycles = std::max(comb_time, agg_time) +
                    std::min(comb_time, agg_time) / 8;

    // Phase timeline: the input stream and the zero-skipping GEMM
    // are one phase from cycle 0; the strip aggregation is paced to
    // end its compute where the drain begins (the timing path's
    // accumulator banks only flush once aggregation retires); the
    // drain is the psum flush plus the X^{l+1} write stream at the
    // tail. The drain cost is folded into agg_time's roofline, so
    // splitting the spans keeps criticalEnd() == cycles.
    const Cycle drain_time = std::min<Cycle>(
        agg_time, serialized_write_lines * ec.cfg.dram.burstCycles +
                      ec.phaseCycles(0, drain_before));
    result.schedule.inputDma = {0, comb_time};
    result.schedule.combination = {0, comb_time};
    result.schedule.aggregation = {result.cycles - agg_time,
                                   result.cycles - drain_time};
    result.schedule.outputDrain = {result.cycles - drain_time,
                                   result.cycles};
    synthesizeColumnProductSpans(result.schedule, strips);
}

/**
 * The column product's pick policy for TimingSweep: one cursor that
 * every engine shares, strip by strip (its pass is the strip), so an
 * engine takes the next pick whichever engine's run it belongs to.
 * Each pick read-modify-writes the destination's partial-sum strip
 * through the accumulator banks; a run's first pick of every strip
 * also fetches its topology.
 */
class ColumnProductPicks
{
  public:
    explicit ColumnProductPicks(EngineContext &engine_ctx)
        : ec(engine_ctx), stripWidth(engine_ctx.psumStripWidth()),
          strips(engine_ctx.psumStrips())
    {
    }

    void rewind() { at = SweepCursor{}; }

    bool
    next(unsigned, SweepItem &item)
    {
        const SweepPick pick = nextPick(ec, at, strips, kAnyEngine);
        if (!pick.run)
            return false;
        const std::uint32_t begin_col = pick.pass * stripWidth;
        const std::uint32_t end_col =
            std::min(begin_col + stripWidth, ec.layer.outWidth);
        AccessPlan strip;
        strip.addBytes(AddressMap::kPsumBase +
                           static_cast<Addr>(pick.vertex) *
                               denseRowStride(ec.layer.outWidth) +
                           static_cast<Addr>(begin_col) * kFeatureBytes,
                       static_cast<std::uint64_t>(end_col - begin_col) *
                           kFeatureBytes);
        item.data = strip;
        item.topology =
            pick.first ? ec.topologyPlan(*pick.run) : AccessPlan{};
        item.values = end_col - begin_col;
        return true;
    }

    void
    issue(const AccessPlan &data, MemCallback done)
    {
        ec.psumBuffer->accessBurstRmw(data, TrafficClass::PartialSum,
                                      std::move(done));
    }

  private:
    EngineContext &ec;
    std::uint32_t stripWidth;
    unsigned strips;
    SweepCursor at;
};

void
runTiming(EngineContext &ec, LayerResult &result)
{
    const VertexId n = ec.layer.graph->numVertices();
    const FeatureLayout &in = *ec.layer.inLayout;

    // Streaming input reads (combination) run concurrently with the
    // column-product aggregation: AWB-GCN pipelines the two phases.
    // One X pass per partial-sum strip (see runFast).
    const unsigned strips = ec.psumStrips();
    StreamDma input_dma(ec);
    for (unsigned strip = 0; strip < strips; ++strip) {
        for (VertexId v = 0; v < n; ++v) {
            input_dma.addPlan(in.planRowRead(v), MemOp::Read,
                              TrafficClass::FeatureIn);
        }
    }
    const VertexId owned = ec.ownedEnd();
    if (ec.layer.residual && !ec.layer.isInputLayer) {
        input_dma.addRegion(AddressMap::kResidualBase,
                            static_cast<std::uint64_t>(owned) *
                                ec.denseRowLines(ec.layer.outWidth),
                            MemOp::Read, TrafficClass::FeatureIn);
    }
    const Cycle comb_compute =
        ec.combineRows(n, ec.cfg.zeroSkipCombination);
    result.combCycles += comb_compute;

    TimingSweep<ColumnProductPicks> sweep(ec, ColumnProductPicks(ec));
    ec.buildColumnProgram();
    StreamDma out_dma(ec);
    bool agg_finished = false;
    Cycle agg_end = 0;
    sweep.start([&] {
        agg_finished = true;
        agg_end = ec.events.now();
        result.aggCycles += agg_end;
        // Dirty partial sums flush as the S^{l+1} writeback, then
        // the activated X^{l+1} streams out.
        ec.psumBuffer->flush();
        ec.writeOutputRows(out_dma, 0, owned);
        out_dma.start(nullptr);
    });
    input_dma.start(nullptr);
    ec.events.run();
    SGCN_ASSERT(agg_finished,
                "column-product aggregation never drained");
    result.cycles = std::max(ec.events.now(), comb_compute);

    // The input stream feeds the zero-skipping GEMM from the layer
    // start; aggregation and the flush/write-out drain follow their
    // observed event times.
    result.schedule.inputDma = {0, comb_compute};
    result.schedule.combination = {0, comb_compute};
    result.schedule.aggregation = {0, agg_end};
    result.schedule.outputDrain = {agg_end, result.cycles};
    synthesizeColumnProductSpans(result.schedule, strips);
}

} // namespace

void
runColumnProduct(EngineContext &ec, LayerResult &result)
{
    SGCN_ASSERT(ec.psumBuffer,
                "column product requires accumulator banks");
    if (ec.mode == ExecutionMode::Fast)
        runFast(ec, result);
    else
        runTiming(ec, result);
}

} // namespace sgcn
