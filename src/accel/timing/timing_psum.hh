/**
 * @file
 * Event-driven column-product aggregation engine (timing mode,
 * AWB-GCN): one cursor, shared by every engine, over the column
 * product's sweep program (the one the fast path replays), strip by
 * strip; each pick read-modify-writes the destination's partial-sum
 * strip through the accumulator banks. Requires the EngineContext's
 * psumBuffer (present for ColumnProduct personalities).
 */

#ifndef SGCN_ACCEL_TIMING_TIMING_PSUM_HH
#define SGCN_ACCEL_TIMING_TIMING_PSUM_HH

#include <functional>
#include <vector>

#include "accel/engine_context.hh"
#include "mem/burst.hh"

namespace sgcn
{

/** Event-driven column-product aggregation over the whole layer. */
class TimingPsum
{
  public:
    /** Builds the column product's sweep program in @p ec. */
    explicit TimingPsum(EngineContext &ec);

    /** Begin issuing; @p on_done fires when every engine drains. */
    void start(std::function<void()> on_done);

  private:
    struct EngineState
    {
        unsigned outstanding = 0;
        Cycle computeFreeAt = 0;
    };

    void tryIssue(unsigned e);
    void itemDone(unsigned e, std::uint32_t values);
    void checkDone();

    EngineContext &ec;
    std::vector<EngineState> engines;
    /** Joins the topology and partial-sum bursts of one item. */
    BurstPool joins;
    std::uint32_t stripWidth = 0;
    unsigned strips = 0;
    /** The engines' shared place in the program; its pass is the
     *  strip. */
    EngineContext::SweepCursor at;
    bool exhausted = false;
    bool signalled = false;
    std::function<void()> done;
};

} // namespace sgcn

#endif // SGCN_ACCEL_TIMING_TIMING_PSUM_HH
