/**
 * @file
 * Memory request descriptor shared by the cache and DRAM models.
 *
 * All requests in the timing path are single-cacheline: access plans
 * produced by the feature formats are already reduced to cacheline
 * granularity before they reach the memory system.
 */

#ifndef SGCN_MEM_MEM_REQUEST_HH
#define SGCN_MEM_MEM_REQUEST_HH

#include "sim/small_function.hh"
#include "sim/types.hh"

namespace sgcn
{

/** A single-cacheline memory request. */
struct MemRequest
{
    /** Cacheline-aligned address. */
    Addr lineAddr = 0;

    /** Read or write. */
    MemOp op = MemOp::Read;

    /** Traffic class for the Fig. 14 breakdown. */
    TrafficClass cls = TrafficClass::FeatureIn;
};

/** Inline capture budget of a memory completion callback: engine
 *  item completions and burst-join handles are at most a couple of
 *  pointers plus a word. */
constexpr std::size_t kMemCaptureBytes = 32;

/** Completion callback invoked when a timing request finishes.
 *  Move-only with inline capture storage; never heap-allocates for
 *  captures up to kMemCaptureBytes. */
using MemCallback = SmallFunction<kMemCaptureBytes>;

/** Per-traffic-class line counters (64B lines). */
struct TrafficCounters
{
    std::uint64_t readLines[kNumTrafficClasses] = {};
    std::uint64_t writeLines[kNumTrafficClasses] = {};

    /** Record one line of traffic. */
    void
    add(MemOp op, TrafficClass cls, std::uint64_t lines = 1)
    {
        const auto idx = static_cast<unsigned>(cls);
        if (op == MemOp::Read)
            readLines[idx] += lines;
        else
            writeLines[idx] += lines;
    }

    /** Total lines moved in both directions. */
    std::uint64_t
    totalLines() const
    {
        std::uint64_t total = 0;
        for (unsigned i = 0; i < kNumTrafficClasses; ++i)
            total += readLines[i] + writeLines[i];
        return total;
    }

    /** Total lines for one class, both directions. */
    std::uint64_t
    classLines(TrafficClass cls) const
    {
        const auto idx = static_cast<unsigned>(cls);
        return readLines[idx] + writeLines[idx];
    }

    /** Total bytes moved in both directions. */
    std::uint64_t totalBytes() const
    {
        return totalLines() * kCachelineBytes;
    }

    /** Element-wise accumulation. */
    void
    merge(const TrafficCounters &other)
    {
        for (unsigned i = 0; i < kNumTrafficClasses; ++i) {
            readLines[i] += other.readLines[i];
            writeLines[i] += other.writeLines[i];
        }
    }

    /** Scale every counter by @p factor, truncating. */
    void
    scale(double factor)
    {
        for (unsigned i = 0; i < kNumTrafficClasses; ++i) {
            readLines[i] = static_cast<std::uint64_t>(
                static_cast<double>(readLines[i]) * factor);
            writeLines[i] = static_cast<std::uint64_t>(
                static_cast<double>(writeLines[i]) * factor);
        }
    }
};

} // namespace sgcn

#endif // SGCN_MEM_MEM_REQUEST_HH
