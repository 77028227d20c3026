#include "accel/dataflow/row_product_common.hh"

#include <algorithm>
#include <span>

namespace sgcn
{

Cycle
sweepTileFast(EngineContext &ec, const TiledGraphView &view,
              unsigned tile, const FeatureLayout &layout,
              TrafficClass cls)
{
    ec.buildTileProgram(view, tile);
    const auto &entries = ec.sweepEntries;
    const auto &picks = ec.sweepPicks;
    StreamLineCounter stream{ec.fastStreamTraffic};
    std::vector<Cycle> engine_cycles(ec.cfg.aggEngines, 0);
    // A dense layout whose slices' sets move in lockstep
    // (Cache::lockstep) reads each slice run's first line, and each
    // pass counts its cache work once more per further line of the
    // slice.
    const bool lockstep =
        layout.kind() == FormatKind::Dense &&
        ec.cache.lockstep(layout.baseAddress(),
                          denseRowStride(layout.featureWidth()),
                          static_cast<std::uint64_t>(layout.sliceWidth()) *
                              kFeatureBytes);

    // Source tiles outermost: the tile's edges are fetched once into
    // the edge buffer (Fig. 5) and replayed for every feature slice.
    const unsigned slices = layout.numSlices();
    const FeatureLayout::SlicePlan *table = layout.sliceTable();
    for (std::size_t c = 0; c + 1 < ec.sweepSrcBegin.size(); ++c) {
        const std::span<const EngineContext::SweepEntry> runs(
            entries.data() + ec.sweepSrcBegin[c],
            ec.sweepSrcBegin[c + 1] - ec.sweepSrcBegin[c]);
        for (unsigned s = 0; s < slices; ++s) {
            const Cache::Tally mark = ec.cache.tally();
            for (const EngineContext::SweepEntry &entry : runs) {
                if (s == 0) {
                    // Later slices replay the edge buffer.
                    stream.addPlan(ec.topologyPlan(entry), MemOp::Read,
                                   TrafficClass::Topology);
                }
                Cycle compute = 0;
                std::uint64_t macs = 0;
                const std::size_t pick_end = entry.pickBegin + entry.walk;
                for (std::size_t i = entry.pickBegin; i < pick_end; ++i) {
                    const FeatureLayout::SlicePlan &pe =
                        table[static_cast<std::size_t>(picks[i]) *
                                  slices + s];
                    if (pe.lines !=
                        FeatureLayout::SlicePlan::kMultiRun) {
                        ec.cache.accessRunFunctional(
                            pe.addr, lockstep ? 1 : pe.lines,
                            MemOp::Read, cls);
                    } else {
                        ec.cache.accessPlanFunctional(
                            layout.planSliceRead(picks[i], s),
                            MemOp::Read, cls);
                    }
                    compute += std::max<Cycle>(
                        1, divCeil(pe.values, ec.cfg.simdLanes));
                    macs += pe.values;
                }
                engine_cycles[entry.engine] += compute;
                ec.aggMacs += macs;
            }
            if (lockstep && !runs.empty())
                ec.cache.repeatSince(mark, table[s].lines - 1);
        }
    }
    return *std::max_element(engine_cycles.begin(),
                             engine_cycles.end());
}

RowProductPicks::RowProductPicks(EngineContext &engine_ctx,
                                 const FeatureLayout &feature_layout,
                                 TrafficClass traffic_cls)
    : ec(engine_ctx), layout(feature_layout), cls(traffic_cls)
{
}

void
RowProductPicks::rewind()
{
    cursors.assign(ec.cfg.aggEngines, SweepCursor{});
}

bool
RowProductPicks::next(unsigned engine, SweepItem &item)
{
    const SweepPick pick =
        nextPick(ec, cursors[engine], layout.numSlices(), engine);
    if (!pick.run)
        return false;
    item.data = layout.planSliceRead(pick.vertex, pick.pass);
    item.topology = pick.first && pick.pass == 0
                        ? ec.topologyPlan(*pick.run)
                        : AccessPlan{};
    item.values = layout.sliceValues(pick.vertex, pick.pass);
    return true;
}

void
RowProductPicks::issue(const AccessPlan &data, MemCallback done)
{
    ec.cache.accessBurst(data, MemOp::Read, cls, std::move(done));
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
