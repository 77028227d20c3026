/**
 * @file
 * The event-driven aggregation engine of timing mode.
 *
 * TimingSweep issues the EngineContext's sweep program (the one the
 * fast sweep replays) with a bounded number of in-flight picks per
 * engine; a pick's topology lines stream from DRAM ahead of its data
 * lines, and a completed pick occupies its engine's SIMD lanes for
 * ceil(values / lanes) cycles. The dataflow's pick policy says which
 * pick an engine takes next and what its data lines are:
 * RowProductPicks (row_product_common.hh) and ColumnProductPicks
 * (column_product.cc). All memory and event-queue interaction goes
 * through the public EngineContext interface.
 */

#ifndef SGCN_ACCEL_TIMING_TIMING_SWEEP_HH
#define SGCN_ACCEL_TIMING_TIMING_SWEEP_HH

#include <algorithm>
#include <functional>
#include <vector>

#include "accel/engine_context.hh"
#include "mem/burst.hh"
#include "sim/logging.hh"

namespace sgcn
{

/** A pick policy's place in the program: source tile, pass (feature
 *  slice or partial-sum strip), run, pick. */
struct SweepCursor
{
    unsigned srcTile = 0;
    unsigned pass = 0;
    std::size_t entry = 0;
    std::uint32_t pick = 0;
};

/** One pick of the program; run is null once the program is done. */
struct SweepPick
{
    const EngineContext::SweepEntry *run = nullptr;
    VertexId vertex = 0;
    unsigned pass = 0;
    /** The run's first pick in this pass. */
    bool first = false;
};

/** nextPick's engine for a cursor every engine shares. */
constexpr unsigned kAnyEngine = ~0u;

/** The pick of @p ec's program at @p at, advancing @p at past it.
 *  Each source tile's runs are replayed for @p passes passes; only
 *  @p engine's runs are visited (every run for kAnyEngine). */
SweepPick nextPick(const EngineContext &ec, SweepCursor &at,
                   unsigned passes, unsigned engine);

/** What one pick issues: its run's topology lines (empty unless the
 *  pick fetches them), its data lines, and the values its engine's
 *  SIMD lanes reduce. */
struct SweepItem
{
    AccessPlan topology;
    AccessPlan data;
    std::uint32_t values = 0;
};

/**
 * Timing-mode aggregation over the context's current sweep program.
 *
 * @tparam Picks the pick policy:
 *  - `void rewind()` returns to the program's start;
 *  - `bool next(unsigned engine, SweepItem &item)` fills @p engine's
 *    next pick, or returns false when that engine has none left;
 *  - `void issue(const AccessPlan &data, MemCallback done)` issues a
 *    pick's data lines.
 */
template <typename Picks>
class TimingSweep
{
  public:
    TimingSweep(EngineContext &engine_ctx, Picks pick_policy)
        : ec(engine_ctx), picks(std::move(pick_policy)),
          engines(engine_ctx.cfg.aggEngines)
    {
    }

    /** Pending callbacks hold this engine's address. */
    TimingSweep(const TimingSweep &) = delete;
    TimingSweep &operator=(const TimingSweep &) = delete;

    /** Sweep the program from fresh engines (idle, their compute
     *  free from cycle 0) and a rewound policy. @p on_done fires
     *  when every engine has seen the end of its picks and is idle;
     *  it is moved out first, so it may start the next sweep. */
    void
    start(std::function<void()> on_done)
    {
        done = std::move(on_done);
        engines.assign(engines.size(), Engine{});
        picks.rewind();
        for (unsigned e = 0; e < engines.size(); ++e)
            tryIssue(e);
        checkDone();
    }

  private:
    struct Engine
    {
        unsigned outstanding = 0;
        Cycle computeFreeAt = 0;
        bool exhausted = false;
    };

    void
    tryIssue(unsigned e)
    {
        Engine &es = engines[e];
        SweepItem item;
        while (es.outstanding < ec.cfg.outstandingPerEngine) {
            if (!picks.next(e, item)) {
                es.exhausted = true;
                break;
            }
            SGCN_ASSERT(item.topology.numRuns > 0 ||
                        item.data.numRuns > 0);
            ++es.outstanding;
            MemCallback on_item(
                [this, e, values = item.values] { itemDone(e, values); });
            // Topology streams from DRAM ahead of the data lines; a
            // pooled two-way join replaces the per-line closures when
            // the pick carries both.
            if (item.topology.numRuns > 0 && item.data.numRuns > 0) {
                BurstPool::Node *join = joins.join(2, std::move(on_item));
                ec.dram.accessBurst(item.topology, MemOp::Read,
                                    TrafficClass::Topology,
                                    BurstPool::part(join));
                picks.issue(item.data, BurstPool::part(join));
            } else if (item.topology.numRuns > 0) {
                ec.dram.accessBurst(item.topology, MemOp::Read,
                                    TrafficClass::Topology,
                                    std::move(on_item));
            } else {
                picks.issue(item.data, std::move(on_item));
            }
        }
    }

    void
    itemDone(unsigned e, std::uint32_t values)
    {
        Engine &es = engines[e];
        es.computeFreeAt =
            std::max(ec.events.now(), es.computeFreeAt) +
            std::max<Cycle>(1, divCeil(values, ec.cfg.simdLanes));
        ec.aggMacs += values;
        ec.events.schedule(es.computeFreeAt, [this, e] {
            --engines[e].outstanding;
            tryIssue(e);
            checkDone();
        });
    }

    void
    checkDone()
    {
        if (!done)
            return;
        for (const Engine &es : engines) {
            if (!es.exhausted || es.outstanding != 0)
                return;
        }
        std::function<void()> cb = std::move(done);
        done = nullptr;
        cb();
    }

    EngineContext &ec;
    Picks picks;
    std::vector<Engine> engines;
    /** Joins the topology and data bursts of in-flight picks. */
    BurstPool joins;
    std::function<void()> done;
};

} // namespace sgcn

#endif // SGCN_ACCEL_TIMING_TIMING_SWEEP_HH
