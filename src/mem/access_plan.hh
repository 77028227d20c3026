/**
 * @file
 * Cacheline-granular access plans.
 *
 * An AccessPlan is the interchange format between the feature
 * layouts (which know where a row's bytes live) and the cache and
 * DRAM models (which move 64B lines): up to kMaxRuns contiguous runs
 * of lines. Contiguous additions merge, so plans stay tiny. Cache
 * and DRAM consume whole plans through their bulk entry points
 * (Cache::accessBurst, Dram::accessBurst) so a plan costs one
 * completion callback, not one per line.
 */

#ifndef SGCN_MEM_ACCESS_PLAN_HH
#define SGCN_MEM_ACCESS_PLAN_HH

#include <array>
#include <cstdint>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace sgcn
{

/**
 * A cacheline-granular access plan: up to kMaxRuns contiguous runs
 * of lines. Contiguous additions merge, so plans stay tiny.
 */
struct AccessPlan
{
    static constexpr unsigned kMaxRuns = 16;

    struct Run
    {
        Addr addr;           //!< line-aligned start address
        std::uint32_t lines;
    };

    /** Only the first numRuns entries are meaningful; the array is
     *  deliberately left uninitialized — plans are built and
     *  discarded millions of times per sweep, and zeroing 16 runs
     *  per construction dominated the layouts' plan builders. */
    std::array<Run, kMaxRuns> runs;
    unsigned numRuns = 0;

    /** Append the lines touched by [addr, addr+bytes). */
    void
    addBytes(Addr addr, std::uint64_t bytes)
    {
        if (bytes == 0)
            return;
        const Addr first = alignDown(addr, kCachelineBytes);
        addLines(first,
                 static_cast<std::uint32_t>(linesTouched(addr, bytes)));
    }

    /** Append a pre-aligned run of lines, merging when contiguous. */
    void
    addLines(Addr line_addr, std::uint32_t lines)
    {
        if (lines == 0)
            return;
        SGCN_ASSERT(isAligned(line_addr, kCachelineBytes));
        if (numRuns > 0) {
            Run &last = runs[numRuns - 1];
            const Addr last_end =
                last.addr +
                static_cast<Addr>(last.lines) * kCachelineBytes;
            if (last_end == line_addr) {
                last.lines += lines;
                return;
            }
        }
        SGCN_ASSERT(numRuns < kMaxRuns, "access plan overflow");
        runs[numRuns++] = Run{line_addr, lines};
    }

    /** Total lines in the plan. */
    std::uint64_t
    totalLines() const
    {
        std::uint64_t total = 0;
        for (unsigned r = 0; r < numRuns; ++r)
            total += runs[r].lines;
        return total;
    }

    /** Invoke @p fn for every line address in order. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (unsigned r = 0; r < numRuns; ++r) {
            for (std::uint32_t i = 0; i < runs[r].lines; ++i)
                fn(runs[r].addr +
                   static_cast<Addr>(i) * kCachelineBytes);
        }
    }
};

} // namespace sgcn

#endif // SGCN_MEM_ACCESS_PLAN_HH
