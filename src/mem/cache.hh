/**
 * @file
 * Set-associative write-back global cache (Table III: 512 KB,
 * 16-way, LRU) with MSHR-based miss handling and optional way
 * pinning used to model EnGN's degree-aware vertex cache.
 *
 * The cache exposes both a timing interface (requests flow to the
 * DRAM model through the event queue) and a functional interface
 * (tag-array-only, used by the fast estimation mode). Both share the
 * same tag array logic so hit rates agree by construction: every
 * lookup goes through one tag-match kernel and every LRU/FIFO
 * replacement through one victim-pick kernel, which read a set's
 * separate tag and use-stamp rows (at 16 ways, 64 bytes each,
 * compared with SSE2 where the platform has it).
 *
 * The fast sweeps over dense rows lean on one property of the set
 * mapping (lockstep()): when a row's lines divide the set count and
 * rows start aligned to their size, the lines of a row share a tag
 * and each sits in a set of its own. Under LRU, FIFO and SRRIP, sets
 * that see one access sequence from one start stay in identical
 * states, so the row-product sweep reads one line per row per
 * source-tile pass and counts it for every line of the row, and the
 * column product reads one line per partial-sum strip and counts it
 * for the strip (tally() and repeatSince()). Timing mode still
 * issues every line: there each one is a DRAM request.
 */

#ifndef SGCN_MEM_CACHE_HH
#define SGCN_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "mem/access_plan.hh"
#include "mem/burst.hh"
#include "mem/dram.hh"
#include "mem/mem_request.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace sgcn
{

/** Replacement policy of the global cache (Table III: LRU). */
enum class ReplacementPolicy
{
    Lru,
    Fifo,
    Random,
    /** Static re-reference interval prediction (SRRIP-2): lines
     *  insert at distant RRPV and must be re-referenced to stay,
     *  resisting the streaming thrash SV-C describes. */
    Srrip,
};

/** Human-readable replacement policy name. */
constexpr const char *
replacementPolicyName(ReplacementPolicy policy)
{
    switch (policy) {
      case ReplacementPolicy::Lru: return "LRU";
      case ReplacementPolicy::Fifo: return "FIFO";
      case ReplacementPolicy::Random: return "Random";
      case ReplacementPolicy::Srrip: return "SRRIP";
      default: return "invalid";
    }
}

/** Cache geometry and timing configuration. */
struct CacheConfig
{
    /** Total capacity in bytes (Table III: 512 KB). */
    std::uint64_t sizeBytes = 512 * 1024;

    /** Associativity (Table III: 16). */
    unsigned ways = 16;

    /** Hit latency in cycles. */
    Cycle hitLatency = 2;

    /** Miss status holding registers (outstanding misses). */
    unsigned mshrs = 256;

    /** Replacement policy (Table III: LRU). */
    ReplacementPolicy replacement = ReplacementPolicy::Lru;

    /**
     * Use-stamp tick at which the LRU/FIFO stamps are renormalized
     * (dense-ranked, order-preserving) so they keep fitting their
     * 32-bit slots. The default fires once per ~4G accesses; tests
     * lower it to exercise the renormalization deterministically.
     */
    std::uint32_t useStampRenormThreshold = 0xffff'fff0u;

    /** Derived: number of sets. */
    std::uint64_t
    numSets() const
    {
        return sizeBytes / (kCachelineBytes * ways);
    }
};

/** Aggregate cache statistics. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t mshrCoalesced = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * The shared on-chip global cache in front of DRAM.
 */
class Cache
{
  public:
    Cache(const CacheConfig &config, Dram &dram, EventQueue &queue);
    ~Cache();

    /**
     * Timing access. The completion callback fires after the hit
     * latency on a hit, or after the DRAM fill on a miss. Misses to a
     * line already outstanding coalesce onto the existing MSHR. When
     * all MSHRs are busy the request queues internally; the bounded
     * engine request windows provide global backpressure.
     */
    void access(const MemRequest &request, MemCallback done);

    /**
     * Timing access of every line in @p plan, in order; @p done
     * fires exactly once, when the last line completes (immediately
     * if the plan is empty). Line-for-line equivalent to calling
     * access() per line, with one pooled join counter instead of a
     * heap-allocated closure per line.
     */
    void accessBurst(const AccessPlan &plan, MemOp op,
                     TrafficClass cls, MemCallback done);

    /**
     * Read-modify-write burst: for each line of @p plan, in order,
     * a read then a write (the column-product partial-sum update
     * pattern). @p done fires once, after all 2x completions.
     */
    void accessBurstRmw(const AccessPlan &plan, TrafficClass cls,
                        MemCallback done);

    /**
     * Functional access of every line in @p plan, in order: one
     * accessRunFunctional call per run. This is the fast sweeps' hot
     * entry point.
     */
    void accessPlanFunctional(const AccessPlan &plan, MemOp op,
                              TrafficClass cls);

    /**
     * Functional access of @p lines consecutive lines starting at
     * @p line_addr (one plan run), in order: updates the tag array
     * and the DRAM traffic counters only (no events, no latency), and
     * posts statistics once per run. Under LRU/FIFO each line
     * resolves in one fused step, a tag match and, on a miss, a
     * victim pick that skips the set's pinned ways. Returns the
     * number of lines that hit.
     */
    std::uint32_t accessRunFunctional(Addr line_addr,
                                      std::uint32_t lines, MemOp op,
                                      TrafficClass cls);

    /**
     * Functional read-modify-write of a run (the column-product
     * partial-sum update): for each line, a read then a write. The
     * write always finds the line the read just left resident and
     * most recently used, so each line costs one write access plus
     * one extra hit, exactly the counts of the separate pair.
     */
    void accessRunRmwFunctional(Addr line_addr, std::uint32_t lines,
                                TrafficClass cls);

    /**
     * Pin the line at @p line_addr: functionally install it, count
     * the fill as @p cls read traffic, and exempt it from eviction.
     * Used to model EnGN's degree-aware vertex cache. Returns false,
     * pinning nothing, when half the set's ways are already pinned.
     */
    bool pin(Addr line_addr, TrafficClass cls);

    /** Unpin every line (e.g. between layers). */
    void unpinAll();

    /** Drop all cached lines (dirty lines write back functionally). */
    void flush();

    /** Every counter the cache moves: its statistics and the DRAM
     *  traffic of its functional accesses. */
    struct Tally
    {
        CacheStats stats;
        TrafficCounters traffic;
    };

    /** The counters now, as a mark for repeatSince(). */
    Tally tally() const { return {statCounters, functionalTraffic}; }

    /**
     * Count everything since @p mark @p extra more times: hits,
     * misses, MSHR coalesces, evictions, writebacks and the
     * functional read and write lines of every class. The lockstep
     * sweeps run one set of a lockstep group and count it for all:
     * a row-product pass once more per further line of the row, a
     * partial-sum strip once more per further line of the strip.
     */
    void repeatSince(const Tally &mark, std::uint64_t extra);

    /**
     * The lockstep rule. Take rows of @p row_bytes laid out from
     * @p base and touched only functionally: whole-row pins into an
     * empty cache, then whole runs of slices that start every
     * @p slice_bytes of a row (reads and read-modify-writes), then
     * flush(). Returns true when the sets holding a row move in
     * lockstep: every row is a whole number of lines that divides
     * the set count, every row starts on a multiple of its own size,
     * every slice starts on a line, and the policy keeps each set's
     * state to itself. Then every line of a row has the row's tag
     * and a set of its own, and lies in exactly one slice. Line j of
     * every row maps into one group of sets, the same way for every
     * j, and the groups start alike (all invalid, then whole-row
     * pins). A pass that runs one slice of a sequence of rows gives
     * each of the slice's groups that one sequence, so they stay
     * alike: running each row's first line of the slice and counting
     * it once more per further line of the slice (repeatSince) gives
     * every count the whole slice would. When every slice runs the
     * same row sequence, as the passes over one source tile do,
     * running each row's first line once and counting that pass once
     * more per further line of the row gives every count of the
     * slice-by-slice passes. The pins stay whole: they all land
     * before the first run, so the sets the reduced runs skip change
     * none of their counts. Random fails the rule: every set draws
     * its victims from one shared stream.
     */
    bool lockstep(Addr base, std::uint64_t row_bytes,
                  std::uint64_t slice_bytes) const;

    /** Cache statistics. */
    const CacheStats &stats() const { return statCounters; }

    /** DRAM-side traffic generated by functional accesses. */
    const TrafficCounters &functionalDramTraffic() const
    {
        return functionalTraffic;
    }

    /** Outstanding timing misses (allocated MSHRs). */
    std::size_t outstandingMisses() const { return mshrCount; }

    /** The active configuration. */
    const CacheConfig &config() const { return cfg; }

  private:
    /** Sentinel tag for an invalid line. Tags are 32-bit: the
     *  modeled address space ends below 4 GB (AddressMap), so real
     *  tags stay far under the sentinel (asserted on install). */
    static constexpr std::uint32_t kInvalidTag = ~0u;

    /** Bits of the per-line metadata byte: the dirty flag plus the
     *  SRRIP re-reference prediction value (0 = imminent). */
    static constexpr std::uint8_t kLineDirty = 1;
    static constexpr unsigned kRrpvShift = 2;
    static constexpr std::uint8_t kRrpvMask = 3 << kRrpvShift;

    /** Widest associativity: each set's pinned ways are one u64. */
    static constexpr unsigned kMaxWays = 64;

    static constexpr std::size_t kNoLine = ~std::size_t{0};
    static constexpr unsigned kNoWay = ~0u;

    /** Overflow storage for deeply-coalesced MSHR targets: fixed
     *  blocks chained off the entry, recycled through a free list so
     *  the steady state never touches the heap. */
    struct MshrTargetNode
    {
        static constexpr unsigned kTargets = 4;

        MemCallback targets[kTargets];
        std::uint8_t used = 0;
        MshrTargetNode *next = nullptr;
    };

    /**
     * One outstanding miss in the open-addressing MSHR table
     * (linear probing, backward-shift deletion). The common
     * coalescing degree stores its completion targets inline;
     * deeper chains spill into free-listed MshrTargetNodes. This
     * replaces the per-miss std::unordered_map node + targets
     * vector — the last per-plan allocations on the timing hot
     * path (tests/test_alloc_bounds.cc pins the bound).
     */
    struct MshrEntry
    {
        static constexpr unsigned kInlineTargets = 2;

        Addr addr = 0;
        bool occupied = false;
        bool anyWrite = false;
        std::uint8_t inlineUsed = 0;
        MemCallback inlineTargets[kInlineTargets];
        MshrTargetNode *overflowHead = nullptr;
        MshrTargetNode *overflowTail = nullptr;
    };

    std::uint64_t setIndex(Addr line_addr) const;
    /** Tag of @p line_addr, asserted below kInvalidTag. */
    std::uint32_t tagOf(Addr line_addr) const;

    /**
     * The set kernels. matchWay returns the lowest way of the set
     * whose first line sits at flat index @p base that holds @p tag,
     * or kNoWay. victimWay returns the lowest way outside @p pinned
     * with the minimum use stamp (invalid lines stamp 0, so it picks
     * them first), or kNoWay if every way is pinned. At 16 ways on
     * SSE2 targets each is a few vector ops over one row; other
     * associativities run the scalar loop.
     */
    inline unsigned matchWay(std::size_t base, std::uint32_t tag) const;
    inline unsigned victimWay(std::size_t base,
                              std::uint64_t pinned) const;

    /** Probe for @p line_addr; updates LRU on hit. Returns the hit
     *  line's flat index, or kNoLine on miss. */
    std::size_t probe(Addr line_addr);

    /**
     * Choose a victim in the set of @p line_addr, write it back if
     * dirty (via @p timing DRAM or functional counters), and install
     * the new tag. Returns the installed line's flat index.
     */
    std::size_t fill(Addr line_addr, bool timing);

    /**
     * Evict (accounting for a dirty writeback) and overwrite the
     * line at flat index @p victim with @p line_addr: fill() minus
     * the victim pick, shared with the fused functional run path.
     */
    inline void installAt(std::size_t victim, Addr line_addr,
                          bool timing);

    /** The functional run loop. With @p rmw each line is
     *  re-referenced after its write, as the write of a separate
     *  read-then-write pair would (SRRIP's RRPV; a no-op under
     *  LRU/FIFO); the caller counts the extra hits. */
    std::uint32_t runFunctional(Addr line_addr, std::uint32_t lines,
                                bool write, bool rmw, TrafficClass cls);

    /** Start servicing a miss: allocate MSHR and fetch from DRAM. */
    void startMiss(const MemRequest &request, MemCallback done);

    /** DRAM fill returned; complete all coalesced targets. */
    void finishMiss(Addr line_addr);

    /** Home slot of @p line_addr in the MSHR table. */
    std::size_t mshrHome(Addr line_addr) const;

    /** The occupied entry for @p line_addr, or null. */
    MshrEntry *mshrFind(Addr line_addr);

    /** Claim a free slot for @p line_addr (caller checks capacity). */
    MshrEntry &mshrAllocate(Addr line_addr);

    /** Vacate slot @p index, backward-shifting displaced entries. */
    void mshrErase(std::size_t index);

    /** Append @p done to an entry's target list (inline or spill). */
    void mshrPushTarget(MshrEntry &entry, MemCallback done);

    /** Schedule every target of @p entry and recycle its spill
     *  nodes; leaves the entry target-empty. */
    void mshrDispatchTargets(MshrEntry &entry);

    /** Admit queued requests into freed MSHRs. */
    void drainPendingQueue();

    /** Random or SRRIP victim way among the ways outside @p pinned
     *  of the set whose first line sits at flat index @p base (no
     *  invalid lines in the set). */
    unsigned selectVictim(std::size_t base, std::uint64_t pinned);

    /** Next LRU/FIFO stamp; renormalizes first when the counter
     *  reaches the configured threshold so stamps stay 32-bit. */
    std::uint32_t nextUseStamp();

    /** Dense-rank every use stamp, preserving order (policies only
     *  ever compare stamps) and keeping 0 reserved for invalid
     *  lines, then restart the counter above the largest rank. */
    void renormalizeUseStamps();

    CacheConfig cfg;
    Dram &dram;
    EventQueue &events;
    BurstPool bursts;
    /** numSets() is a power of two: index with a mask, not a div. */
    std::uint64_t setMask = 0;
    unsigned setShift = 0;
    std::uint64_t victimSeed = 0x5eed;
    /**
     * Tag and LRU/FIFO use stamp of each line, in two arrays with one
     * slot per line at index set * ways + way. The tag match reads
     * only a set's tag row, and the victim pick only its stamp row;
     * at 16 ways each row is 64 bytes. An invalid line holds
     * kInvalidTag and stamp 0, strictly below every valid line's
     * stamp (the counter starts at 1 and renormalization keeps 0
     * reserved; see CacheConfig::useStampRenormThreshold).
     */
    std::vector<std::uint32_t> lineTag;
    std::vector<std::uint32_t> lineStamp;
    /** Per-line dirty flag and SRRIP RRPV (see the kLine* constants). */
    std::vector<std::uint8_t> lineMeta;
    /** Per-set pinned ways, bit w for way w. Every victim pick skips
     *  them, and pin() keeps at least half of each set unpinned, so
     *  every pick has a candidate. A pinned line is thus never
     *  evicted, and only flush() invalidates lines (clearing every
     *  mask), so an install never has a bit to clear. */
    std::vector<std::uint64_t> setPinned;
    /** Duplicate-access memo of the functional runs: the last line
     *  they touched is resident and MRU, so an immediate re-access
     *  (a run starting where the last ended) needs no tag match. Any
     *  fill, pin or flush invalidates it. */
    Addr lastFunctionalAddr = ~Addr{0};
    std::size_t lastFunctionalIndex = 0;
    /** Open-addressing MSHR table: power-of-two sized at twice the
     *  MSHR capacity, so the load factor stays at or below 1/2 and
     *  linear probes stay short. */
    std::vector<MshrEntry> mshrSlots;
    std::uint64_t mshrSlotMask = 0;
    std::size_t mshrCount = 0;
    MshrTargetNode *mshrTargetFree = nullptr;
    /** MSHR-full overflow, FIFO. A head-indexed vector instead of a
     *  deque: the deque's chunk churn was one allocation per few
     *  queued requests in steady state, the vector's retained
     *  capacity is none (the head compacts whenever the queue
     *  drains, which the bounded engine windows guarantee). */
    std::vector<std::pair<MemRequest, MemCallback>> pendingQueue;
    std::size_t pendingHead = 0;
    CacheStats statCounters;
    TrafficCounters functionalTraffic;
    std::uint64_t useCounter = 0;
};

} // namespace sgcn

#endif // SGCN_MEM_CACHE_HH
