#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace sgcn
{

std::uint32_t
EventQueue::acquireSlot(Callback cb)
{
    std::uint32_t slot;
    if (freeSlots.empty()) {
        slot = static_cast<std::uint32_t>(slots.size());
        slots.push_back(std::move(cb));
    } else {
        slot = freeSlots.back();
        freeSlots.pop_back();
        slots[slot] = std::move(cb);
    }
    return slot;
}

void
EventQueue::markBucket(std::size_t bucket)
{
    bucketBits[bucket >> 6] |= 1ULL << (bucket & 63);
}

void
EventQueue::clearBucket(std::size_t bucket)
{
    bucketBits[bucket >> 6] &= ~(1ULL << (bucket & 63));
}

void
EventQueue::schedule(Cycle when, Callback cb)
{
    SGCN_ASSERT(when >= currentCycle,
                "scheduling into the past: ", when, " < ", currentCycle);
    ++pendingCount;
    if (when - currentCycle < kWheelSpan) {
        // Within the horizon every bucket holds at most one distinct
        // cycle, and appends arrive in schedule order, so position in
        // the bucket is FIFO order.
        const std::size_t bucket = when & kWheelMask;
        wheel[bucket].push_back(std::move(cb));
        markBucket(bucket);
    } else {
        farHeap.push_back(
            FarEvent{when, nextFarSeq++, acquireSlot(std::move(cb))});
        std::push_heap(farHeap.begin(), farHeap.end(), Later{});
    }
}

Cycle
EventQueue::nearTime() const
{
    const std::size_t b0 = currentCycle & kWheelMask;
    const std::size_t base_word = b0 >> 6;
    // Scan the non-empty bitmap cyclically from b0: the first word
    // masked to bits >= b0, then the following words, then the first
    // word's wrapped-around bits < b0.
    for (std::size_t w = 0; w <= kBitmapWords; ++w) {
        const std::size_t word_idx =
            (base_word + w) & (kBitmapWords - 1);
        std::uint64_t bits = bucketBits[word_idx];
        if (w == 0) {
            bits &= ~std::uint64_t{0} << (b0 & 63);
        } else if (w == kBitmapWords) {
            const std::size_t low = b0 & 63;
            bits &= low ? ((std::uint64_t{1} << low) - 1) : 0;
        }
        if (bits != 0) {
            const std::size_t bucket =
                (word_idx << 6) +
                static_cast<std::size_t>(std::countr_zero(bits));
            return currentCycle + ((bucket - b0) & kWheelMask);
        }
    }
    return std::numeric_limits<Cycle>::max();
}

Cycle
EventQueue::farTime() const
{
    return farHeap.empty() ? std::numeric_limits<Cycle>::max()
                           : farHeap.front().when;
}

Cycle
EventQueue::nextTime() const
{
    return std::min(nearTime(), farTime());
}

void
EventQueue::execute(Cycle t_near, Cycle t_far)
{
    --pendingCount;
    ++executedCount;
    // Move the callback out before invoking it: the callback may
    // schedule more events, appending to the bucket it came from or
    // reusing its far slot.
    Callback cb;
    if (t_far <= t_near) {
        // Ties drain the far heap first: a far event of this cycle
        // was necessarily scheduled before every wheel event of this
        // cycle (it predates the horizon reaching the cycle).
        currentCycle = t_far;
        std::pop_heap(farHeap.begin(), farHeap.end(), Later{});
        const std::uint32_t slot = farHeap.back().slot;
        farHeap.pop_back();
        cb = std::move(slots[slot]);
        freeSlots.push_back(slot);
    } else {
        currentCycle = t_near;
        cb = std::move(wheel[currentCycle & kWheelMask][activePos++]);
    }
    cb();

    // Retire the active bucket once fully drained (the callback may
    // have appended same-cycle events behind the cursor, in which
    // case it stays live) so the bitmap only marks undrained work.
    auto &bucket = wheel[currentCycle & kWheelMask];
    if (activePos != 0 && activePos == bucket.size()) {
        bucket.clear();
        activePos = 0;
        clearBucket(currentCycle & kWheelMask);
    }
}

bool
EventQueue::step()
{
    if (pendingCount == 0)
        return false;
    execute(nearTime(), farTime());
    return true;
}

Cycle
EventQueue::run(Cycle limit)
{
    // One bitmap scan per event: the times that decide whether the
    // next event is within the limit also pick which one it is.
    while (pendingCount != 0) {
        const Cycle t_near = nearTime();
        const Cycle t_far = farTime();
        if (std::min(t_near, t_far) > limit)
            break;
        execute(t_near, t_far);
    }
    if (currentCycle < limit && pendingCount == 0)
        return currentCycle;
    currentCycle = std::max(currentCycle, std::min(limit, nextTime()));
    return currentCycle;
}

} // namespace sgcn
