#include "accel/timing/timing_psum.hh"

#include "sim/logging.hh"

namespace sgcn
{

TimingPsum::TimingPsum(EngineContext &engine_ctx)
    : ec(engine_ctx), engines(engine_ctx.cfg.aggEngines),
      stripWidth(engine_ctx.psumStripWidth()),
      strips(engine_ctx.psumStrips())
{
    SGCN_ASSERT(ec.psumBuffer,
                "column-product timing requires accumulator banks");
    ec.buildColumnProgram();
}

void
TimingPsum::start(std::function<void()> on_done)
{
    done = std::move(on_done);
    for (unsigned e = 0; e < engines.size(); ++e)
        tryIssue(e);
    checkDone();
}

void
TimingPsum::tryIssue(unsigned e)
{
    EngineState &es = engines[e];
    while (es.outstanding < ec.cfg.outstandingPerEngine) {
        const EngineContext::SweepPick pick =
            ec.nextPick(at, strips, EngineContext::kAnyEngine);
        if (!pick.run) {
            exhausted = true;
            break;
        }
        const std::uint32_t begin_col = pick.pass * stripWidth;
        const std::uint32_t end_col =
            std::min(begin_col + stripWidth, ec.layer.outWidth);
        AccessPlan strip_plan;
        strip_plan.addBytes(
            AddressMap::kPsumBase +
                static_cast<Addr>(pick.vertex) *
                    denseRowStride(ec.layer.outWidth) +
                static_cast<Addr>(begin_col) * kFeatureBytes,
            static_cast<std::uint64_t>(end_col - begin_col) *
                kFeatureBytes);

        ++es.outstanding;
        const std::uint32_t values = end_col - begin_col;
        MemCallback on_item([this, e, values] { itemDone(e, values); });
        // The strip is always non-empty; the topology plan rides on
        // each run's first pick of every strip. Topology streams
        // from DRAM first, then the strip read-modify-writes the
        // accumulator banks, exactly as the per-line path issued.
        const AccessPlan topo =
            pick.first ? ec.topologyPlan(*pick.run) : AccessPlan{};
        if (topo.numRuns > 0) {
            BurstPool::Node *join = joins.join(2, std::move(on_item));
            ec.dram.accessBurst(topo, MemOp::Read,
                                TrafficClass::Topology,
                                BurstPool::part(join));
            ec.psumBuffer->accessBurstRmw(strip_plan,
                                          TrafficClass::PartialSum,
                                          BurstPool::part(join));
        } else {
            ec.psumBuffer->accessBurstRmw(strip_plan,
                                          TrafficClass::PartialSum,
                                          std::move(on_item));
        }
    }
}

void
TimingPsum::itemDone(unsigned e, std::uint32_t values)
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
TimingPsum::checkDone()
{
    if (signalled || !done || !exhausted)
        return;
    for (const auto &es : engines) {
        if (es.outstanding != 0)
            return;
    }
    signalled = true;
    done();
}

} // namespace sgcn
