#include "accel/timing/timing_agg.hh"

#include "sim/logging.hh"

namespace sgcn
{

TimingAgg::TimingAgg(EngineContext &engine_ctx,
                     const TiledGraphView &view, unsigned tile,
                     const FeatureLayout &feature_layout,
                     TrafficClass traffic_cls)
    : ec(engine_ctx), layout(feature_layout), cls(traffic_cls),
      engines(engine_ctx.cfg.aggEngines)
{
    ec.buildTileProgram(view, tile);
}

void
TimingAgg::start(std::function<void()> on_done)
{
    done = std::move(on_done);
    for (unsigned e = 0; e < engines.size(); ++e)
        tryIssue(e);
    checkDone();
}

void
TimingAgg::tryIssue(unsigned e)
{
    EngineState &es = engines[e];
    while (es.outstanding < ec.cfg.outstandingPerEngine) {
        // Source tile, slice, the engine's runs, pick: the fast
        // sweep's order, restricted to this engine.
        const EngineContext::SweepPick pick =
            ec.nextPick(es.at, layout.numSlices(), e);
        if (!pick.run) {
            es.exhausted = true;
            break;
        }
        const AccessPlan feat =
            layout.planSliceRead(pick.vertex, pick.pass);
        // Topology is fetched once per run, with its first pick of
        // slice 0; later slices replay the edge buffer (Fig. 5).
        const AccessPlan topo = pick.first && pick.pass == 0
                                    ? ec.topologyPlan(*pick.run)
                                    : AccessPlan{};
        SGCN_ASSERT(feat.numRuns > 0 || topo.numRuns > 0);
        ++es.outstanding;
        const std::uint32_t values =
            layout.sliceValues(pick.vertex, pick.pass);
        MemCallback on_item([this, e, values] { itemDone(e, values); });
        // Topology streams from DRAM, features go through the cache
        // hierarchy; a pooled two-way join replaces the per-line
        // closures when the item carries both.
        if (topo.numRuns > 0 && feat.numRuns > 0) {
            BurstPool::Node *join = joins.join(2, std::move(on_item));
            ec.dram.accessBurst(topo, MemOp::Read,
                                TrafficClass::Topology,
                                BurstPool::part(join));
            ec.cache.accessBurst(feat, MemOp::Read, cls,
                                 BurstPool::part(join));
        } else if (topo.numRuns > 0) {
            ec.dram.accessBurst(topo, MemOp::Read,
                                TrafficClass::Topology,
                                std::move(on_item));
        } else {
            ec.cache.accessBurst(feat, MemOp::Read, cls,
                                 std::move(on_item));
        }
    }
}

void
TimingAgg::itemDone(unsigned e, std::uint32_t values)
{
    EngineState &es = engines[e];
    const Cycle now = ec.events.now();
    es.computeFreeAt =
        std::max(now, es.computeFreeAt) +
        std::max<Cycle>(1, divCeil(values, ec.cfg.simdLanes));
    ec.aggMacs += values;
    ec.events.schedule(es.computeFreeAt, [this, e] {
        --engines[e].outstanding;
        tryIssue(e);
        checkDone();
    });
}

void
TimingAgg::checkDone()
{
    if (signalled || !done)
        return;
    for (const auto &es : engines) {
        if (!es.exhausted || es.outstanding != 0)
            return;
    }
    signalled = true;
    done();
}

} // namespace sgcn
