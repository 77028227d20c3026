/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Components schedule callbacks at absolute cycle times; the queue
 * executes them in (time, insertion-order) order. Insertion order is
 * preserved for same-cycle events so component behaviour is
 * deterministic.
 *
 * Two structural choices keep the hot path allocation- and
 * heap-op-free:
 *
 *  - Callbacks are SmallFunction, not std::function: a trivially
 *    copyable capture of at most kEventCaptureBytes held inline
 *    (sim/small_function.hh), so scheduling an event never touches
 *    the heap and queued callbacks move as plain bytes.
 *
 *  - Events within kWheelSpan cycles of now (DRAM bursts, cache hit
 *    latencies, scheduler polls — the overwhelming majority) go into
 *    a timing wheel: a ring of per-cycle buckets, each holding its
 *    callbacks in FIFO order, with a non-empty bitmap, making
 *    schedule and dispatch O(1). Farther events go to a small binary
 *    heap and drain before same-cycle wheel events — which preserves
 *    global FIFO order exactly, because an event can only have
 *    reached the far heap by being scheduled before every wheel
 *    event of the same cycle (the horizon only advances).
 */

#ifndef SGCN_SIM_EVENT_QUEUE_HH
#define SGCN_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/small_function.hh"
#include "sim/types.hh"

namespace sgcn
{

/** Inline capture budget of an event callback: a pointer plus a few
 *  words (scheduler wake-ups, cache and engine completions). The
 *  largest capture, a DRAM completion, is `this` plus a MemCallback:
 *  48 bytes with padding. */
constexpr std::size_t kEventCaptureBytes = 48;

/** Minimal discrete-event kernel driving all timing simulation. */
class EventQueue
{
  public:
    using Callback = SmallFunction<kEventCaptureBytes>;

    /** Schedule @p cb at absolute time @p when (>= now()). */
    void schedule(Cycle when, Callback cb);

    /** Schedule @p cb @p delta cycles from now. */
    void scheduleAfter(Cycle delta, Callback cb)
    {
        schedule(currentCycle + delta, cb);
    }

    /** Current simulation time. */
    Cycle now() const { return currentCycle; }

    /** True if no events are pending. */
    bool empty() const { return pendingCount == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return pendingCount; }

    /** Time of the earliest pending event (max Cycle if empty). */
    Cycle nextTime() const;

    /**
     * Run events until the queue drains or @p limit is reached.
     * @return the final simulation time.
     */
    Cycle run(Cycle limit = std::numeric_limits<Cycle>::max());

    /** Execute exactly one event if any is pending. */
    bool step();

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return executedCount; }

  private:
    /** Wheel span in cycles; must be a power of two. Covers every
     *  fixed latency in the memory models with slack. */
    static constexpr std::size_t kWheelSpan = 256;
    static constexpr std::size_t kWheelMask = kWheelSpan - 1;
    static constexpr std::size_t kBitmapWords = kWheelSpan / 64;

    /** A far event; seq orders far events of the same cycle. */
    struct FarEvent
    {
        Cycle when;
        std::uint64_t seq;
        Callback cb;
    };

    /** std::push_heap max-heap comparator inverted to a (when, seq)
     *  min-heap. */
    struct Later
    {
        bool
        operator()(const FarEvent &a, const FarEvent &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Earliest non-empty wheel cycle (max Cycle if none). */
    Cycle nearTime() const;

    /** Earliest far-heap cycle (max Cycle if none). */
    Cycle farTime() const;

    /** Execute the earliest event, given the two next times (one of
     *  them finite). */
    void execute(Cycle t_near, Cycle t_far);

    void markBucket(std::size_t bucket);
    void clearBucket(std::size_t bucket);

    /** Per-cycle callbacks in schedule order. */
    std::array<std::vector<Callback>, kWheelSpan> wheel;
    std::array<std::uint64_t, kBitmapWords> bucketBits{};
    /** Drain cursor into the bucket at currentCycle. */
    std::size_t activePos = 0;

    std::vector<FarEvent> farHeap;
    std::uint64_t nextFarSeq = 0;

    std::size_t pendingCount = 0;
    Cycle currentCycle = 0;
    std::uint64_t executedCount = 0;
};

} // namespace sgcn

#endif // SGCN_SIM_EVENT_QUEUE_HH
