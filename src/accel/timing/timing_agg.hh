/**
 * @file
 * Event-driven row-product aggregation engine (timing mode).
 *
 * Each engine walks its runs of the tile's sweep program (the one
 * the fast sweep replays) with a bounded number of in-flight work
 * items; feature lines go through the timing cache, topology lines
 * stream from DRAM, and completed items occupy the engine's SIMD
 * lanes for ceil(values / lanes) cycles. All memory and event-queue
 * interaction goes through the public EngineContext interface.
 */

#ifndef SGCN_ACCEL_TIMING_TIMING_AGG_HH
#define SGCN_ACCEL_TIMING_TIMING_AGG_HH

#include <functional>
#include <vector>

#include "accel/engine_context.hh"
#include "mem/burst.hh"

namespace sgcn
{

/** Event-driven aggregation of one destination tile. */
class TimingAgg
{
  public:
    /** Builds the tile's sweep program in @p ec.
     *  @param ec shared per-layer state
     *  @param view tiled topology
     *  @param tile destination-tile index swept by this instance
     *  @param layout layout of the aggregated feature matrix
     *  @param cls traffic class of the feature reads */
    TimingAgg(EngineContext &ec, const TiledGraphView &view,
              unsigned tile, const FeatureLayout &layout,
              TrafficClass cls);

    /** Begin issuing; @p on_done fires when every engine drains. */
    void start(std::function<void()> on_done);

  private:
    struct EngineState
    {
        /** Engines run ahead of each other into different source
         *  tiles, so each keeps its own place in the program. */
        EngineContext::SweepCursor at;
        unsigned outstanding = 0;
        Cycle computeFreeAt = 0;
        bool exhausted = false;
    };

    void tryIssue(unsigned e);
    void itemDone(unsigned e, std::uint32_t values);
    void checkDone();

    EngineContext &ec;
    const FeatureLayout &layout;
    TrafficClass cls;
    std::vector<EngineState> engines;
    /** Joins the topology and feature bursts of in-flight items. */
    BurstPool joins;
    std::function<void()> done;
    bool signalled = false;
};

} // namespace sgcn

#endif // SGCN_ACCEL_TIMING_TIMING_AGG_HH
