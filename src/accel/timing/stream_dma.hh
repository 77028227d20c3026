/**
 * @file
 * Streaming DMA engine for timing-mode simulation.
 *
 * Issues line requests directly to DRAM (streams never pollute the
 * shared cache) with a bounded outstanding-request window. Talks to
 * the memory system exclusively through the public EngineContext
 * interface.
 */

#ifndef SGCN_ACCEL_TIMING_STREAM_DMA_HH
#define SGCN_ACCEL_TIMING_STREAM_DMA_HH

#include <deque>
#include <functional>

#include "accel/engine_context.hh"

namespace sgcn
{

/** Bounded-window streaming engine over a queue of address runs. */
class StreamDma
{
  public:
    /** Maximum outstanding line requests of a stream. */
    static constexpr unsigned kWindow = 128;

    /** @param ec shared per-layer state (DRAM, event queue) */
    explicit StreamDma(EngineContext &ec);

    /** Pending callbacks hold this stream's address. */
    StreamDma(const StreamDma &) = delete;
    StreamDma &operator=(const StreamDma &) = delete;

    /** Queue every run of @p plan. */
    void addPlan(const AccessPlan &plan, MemOp op, TrafficClass cls);

    /** Queue one contiguous region of @p lines cachelines. */
    void addRegion(Addr base, std::uint64_t lines, MemOp op,
                   TrafficClass cls);

    /** Begin issuing; @p on_done (may be null) fires at drain. */
    void start(std::function<void()> on_done);

  private:
    struct Run
    {
        Addr addr;
        std::uint64_t lines;
        MemOp op;
        TrafficClass cls;
    };

    void issue();

    EngineContext &ec;
    std::deque<Run> runs;
    std::uint64_t cursor = 0;
    unsigned outstanding = 0;
    bool started = false;
    std::function<void()> done;
};

} // namespace sgcn

#endif // SGCN_ACCEL_TIMING_STREAM_DMA_HH
