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
    const unsigned slices = layout.numSlices();
    const Addr base = layout.baseAddress();
    const std::uint64_t row_stride = denseRowStride(layout.featureWidth());
    // A dense layout whose rows' sets move in lockstep
    // (Cache::lockstep) takes one pass per source tile, not one per
    // (source tile, slice). Every slice pass replays the tile's picks
    // on its own lines' sets, and each line of a row has the row's tag
    // and a set of its own, so all of a row's sets start and end
    // every pass in one state. The pass reads each pick's first line
    // and then counts its cache work once more per further line of
    // the row; each pick's engine gains the row's summed slice
    // compute. Such a layout never builds its slice table.
    const bool lockstep =
        layout.kind() == FormatKind::Dense &&
        ec.cache.lockstep(base, row_stride,
                          static_cast<std::uint64_t>(layout.sliceWidth()) *
                              kFeatureBytes);
    Cycle row_compute = 0;
    if (lockstep) {
        for (unsigned s = 0; s < slices; ++s) {
            row_compute += std::max<Cycle>(
                1, divCeil(layout.sliceEnd(s) - layout.sliceBegin(s),
                           ec.cfg.simdLanes));
        }
    }
    const FeatureLayout::SlicePlan *table =
        lockstep ? nullptr : layout.sliceTable();

    // Source tiles outermost: the tile's edges are fetched once into
    // the edge buffer (Fig. 5) and replayed for every feature slice.
    for (std::size_t c = 0; c + 1 < ec.sweepSrcBegin.size(); ++c) {
        const std::span<const EngineContext::SweepEntry> runs(
            entries.data() + ec.sweepSrcBegin[c],
            ec.sweepSrcBegin[c + 1] - ec.sweepSrcBegin[c]);
        if (lockstep) {
            const Cache::Tally mark = ec.cache.tally();
            for (const EngineContext::SweepEntry &entry : runs) {
                stream.addPlan(ec.topologyPlan(entry), MemOp::Read,
                               TrafficClass::Topology);
                const std::size_t pick_end = entry.pickBegin + entry.walk;
                for (std::size_t i = entry.pickBegin; i < pick_end; ++i) {
                    ec.cache.accessRunFunctional(
                        base + static_cast<Addr>(picks[i]) * row_stride, 1,
                        MemOp::Read, cls);
                }
                engine_cycles[entry.engine] += entry.walk * row_compute;
                ec.aggMacs += static_cast<std::uint64_t>(entry.walk) *
                              layout.featureWidth();
            }
            ec.cache.repeatSince(mark, row_stride / kCachelineBytes - 1);
            continue;
        }
        for (unsigned s = 0; s < slices; ++s) {
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
                        ec.cache.accessRunFunctional(pe.addr, pe.lines,
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
