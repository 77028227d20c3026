#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "sim/logging.hh"

namespace sgcn
{

#if defined(__SSE2__)
namespace
{

/** Load the 16 lanes of a 16-way tag or stamp row. */
[[gnu::always_inline]] inline void
loadRow16(const std::uint32_t *row, __m128i v[4])
{
    const auto *quads = reinterpret_cast<const __m128i *>(row);
    for (int q = 0; q < 4; ++q)
        v[q] = _mm_loadu_si128(quads + q);
}

/** Bit w set where lane w of the 16-lane row @p v equals the same
 *  lane of @p key: four compares packed down to one byte mask. */
[[gnu::always_inline]] inline unsigned
equalLanes16(const __m128i v[4], __m128i key)
{
    const __m128i lo = _mm_packs_epi32(_mm_cmpeq_epi32(v[0], key),
                                       _mm_cmpeq_epi32(v[1], key));
    const __m128i hi = _mm_packs_epi32(_mm_cmpeq_epi32(v[2], key),
                                       _mm_cmpeq_epi32(v[3], key));
    return static_cast<unsigned>(
        _mm_movemask_epi8(_mm_packs_epi16(lo, hi)));
}

/** Signed 32-bit lane minimum (SSE2 has no pminsd). */
[[gnu::always_inline]] inline __m128i
min32(__m128i a, __m128i b)
{
    const __m128i lt = _mm_cmplt_epi32(a, b);
    return _mm_or_si128(_mm_and_si128(lt, a), _mm_andnot_si128(lt, b));
}

} // namespace
#endif

Cache::Cache(const CacheConfig &config, Dram &dram_module,
             EventQueue &queue)
    : cfg(config), dram(dram_module), events(queue)
{
    SGCN_ASSERT(cfg.ways > 0 && cfg.sizeBytes > 0);
    SGCN_ASSERT(cfg.ways <= kMaxWays, "cache associativity must be at "
                "most ", kMaxWays, " ways (one pin-mask bit per way), "
                "got ", cfg.ways);
    const std::uint64_t num_sets = cfg.numSets();
    SGCN_ASSERT(num_sets > 0 && isPowerOfTwo(num_sets),
                "cache sets must be a power of two, got ", num_sets);
    const std::size_t lines =
        static_cast<std::size_t>(num_sets) * cfg.ways;
    lineTag.assign(lines, kInvalidTag);
    lineStamp.assign(lines, 0);
    lineMeta.assign(lines, 0);
    setPinned.assign(static_cast<std::size_t>(num_sets), 0);
    setMask = num_sets - 1;
    setShift = log2Floor(num_sets);

    // MSHR table: power of two at twice the capacity (minimum 16)
    // keeps the load factor at or below 1/2.
    std::uint64_t slots = 16;
    while (slots < 2 * static_cast<std::uint64_t>(
                        std::max(1u, cfg.mshrs))) {
        slots *= 2;
    }
    mshrSlots = std::vector<MshrEntry>(slots);
    mshrSlotMask = slots - 1;
}

Cache::~Cache()
{
    // Engines drain their event queues before teardown, so every
    // entry's spill chain is already back on the free list; release
    // the pooled nodes themselves (and, defensively, any chain a
    // torn-down simulation abandoned mid-flight).
    for (MshrEntry &entry : mshrSlots) {
        MshrTargetNode *node = entry.overflowHead;
        while (node != nullptr) {
            MshrTargetNode *next = node->next;
            delete node;
            node = next;
        }
    }
    while (mshrTargetFree != nullptr) {
        MshrTargetNode *next = mshrTargetFree->next;
        delete mshrTargetFree;
        mshrTargetFree = next;
    }
}

std::size_t
Cache::mshrHome(Addr line_addr) const
{
    // Fibonacci-style multiplicative mix of the line number; the
    // low bits of feature addresses are stride-patterned, so a
    // plain mask would cluster probes.
    const std::uint64_t line = line_addr / kCachelineBytes;
    return static_cast<std::size_t>(
        (line * 0x9E3779B97F4A7C15ull >> 17) & mshrSlotMask);
}

Cache::MshrEntry *
Cache::mshrFind(Addr line_addr)
{
    std::size_t index = mshrHome(line_addr);
    while (mshrSlots[index].occupied) {
        if (mshrSlots[index].addr == line_addr)
            return &mshrSlots[index];
        index = (index + 1) & mshrSlotMask;
    }
    return nullptr;
}

Cache::MshrEntry &
Cache::mshrAllocate(Addr line_addr)
{
    SGCN_ASSERT(mshrCount < mshrSlots.size() / 2,
                "MSHR table over-filled past its load factor");
    std::size_t index = mshrHome(line_addr);
    while (mshrSlots[index].occupied)
        index = (index + 1) & mshrSlotMask;
    MshrEntry &entry = mshrSlots[index];
    entry.addr = line_addr;
    entry.occupied = true;
    entry.anyWrite = false;
    entry.inlineUsed = 0;
    entry.overflowHead = entry.overflowTail = nullptr;
    ++mshrCount;
    return entry;
}

void
Cache::mshrErase(std::size_t index)
{
    --mshrCount;
    // Backward-shift deletion: pull every displaced follower of the
    // probe chain into the hole instead of leaving a tombstone, so
    // the table never degrades however long the simulation runs.
    std::size_t hole = index;
    std::size_t probe = index;
    while (true) {
        probe = (probe + 1) & mshrSlotMask;
        if (!mshrSlots[probe].occupied)
            break;
        const std::size_t home = mshrHome(mshrSlots[probe].addr);
        // If the entry's home lies cyclically within (hole, probe],
        // a lookup starting at its home never crosses the hole, so
        // it may stay put.
        const bool reachable = hole <= probe
                                   ? (home > hole && home <= probe)
                                   : (home > hole || home <= probe);
        if (reachable)
            continue;
        mshrSlots[hole] = std::move(mshrSlots[probe]);
        hole = probe;
    }
    mshrSlots[hole].occupied = false;
    mshrSlots[hole].inlineUsed = 0;
    mshrSlots[hole].overflowHead = mshrSlots[hole].overflowTail =
        nullptr;
}

void
Cache::mshrPushTarget(MshrEntry &entry, MemCallback done)
{
    if (entry.inlineUsed < MshrEntry::kInlineTargets) {
        entry.inlineTargets[entry.inlineUsed++] = std::move(done);
        return;
    }
    MshrTargetNode *tail = entry.overflowTail;
    if (tail == nullptr || tail->used == MshrTargetNode::kTargets) {
        MshrTargetNode *node;
        if (mshrTargetFree != nullptr) {
            node = mshrTargetFree;
            mshrTargetFree = node->next;
            node->next = nullptr;
            node->used = 0;
        } else {
            node = new MshrTargetNode();
        }
        if (tail == nullptr)
            entry.overflowHead = node;
        else
            tail->next = node;
        entry.overflowTail = node;
        tail = node;
    }
    tail->targets[tail->used++] = std::move(done);
}

void
Cache::mshrDispatchTargets(MshrEntry &entry)
{
    for (unsigned i = 0; i < entry.inlineUsed; ++i) {
        events.scheduleAfter(cfg.hitLatency,
                             std::move(entry.inlineTargets[i]));
    }
    entry.inlineUsed = 0;
    MshrTargetNode *node = entry.overflowHead;
    while (node != nullptr) {
        for (unsigned i = 0; i < node->used; ++i) {
            events.scheduleAfter(cfg.hitLatency,
                                 std::move(node->targets[i]));
        }
        node->used = 0;
        MshrTargetNode *next = node->next;
        node->next = mshrTargetFree;
        mshrTargetFree = node;
        node = next;
    }
    entry.overflowHead = entry.overflowTail = nullptr;
}

std::uint64_t
Cache::setIndex(Addr line_addr) const
{
    return (line_addr / kCachelineBytes) & setMask;
}

std::uint32_t
Cache::tagOf(Addr line_addr) const
{
    const std::uint64_t tag = (line_addr / kCachelineBytes) >> setShift;
    SGCN_ASSERT(tag < kInvalidTag, "line address past the 32-bit "
                "tag range: ", line_addr);
    return static_cast<std::uint32_t>(tag);
}

[[gnu::always_inline]] inline unsigned
Cache::matchWay(std::size_t base, std::uint32_t tag) const
{
    const std::uint32_t *tags = lineTag.data() + base;
#if defined(__SSE2__)
    if (cfg.ways == 16) {
        // Tags are unique within a set, except kInvalidTag, which a
        // valid tag never equals (tagOf asserts it); looking up
        // kInvalidTag thus finds the lowest invalid way.
        __m128i v[4];
        loadRow16(tags, v);
        const unsigned hits =
            equalLanes16(v, _mm_set1_epi32(static_cast<int>(tag)));
        return hits != 0 ? static_cast<unsigned>(std::countr_zero(hits))
                         : kNoWay;
    }
#endif
    for (unsigned w = 0; w < cfg.ways; ++w) {
        if (tags[w] == tag)
            return w;
    }
    return kNoWay;
}

[[gnu::always_inline]] inline unsigned
Cache::victimWay(std::size_t base, std::uint64_t pinned) const
{
    const std::uint32_t *stamps = lineStamp.data() + base;
#if defined(__SSE2__)
    if (cfg.ways == 16) {
        __m128i v[4];
        loadRow16(stamps, v);
        if (pinned != 0) {
            // A pinned lane reads as the largest stamp, so it ties
            // for the minimum only when every unpinned lane holds
            // that stamp too; the mask below then drops it.
            __m128i bits = _mm_set1_epi32(static_cast<int>(pinned));
            const __m128i lanes = _mm_setr_epi32(1, 2, 4, 8);
            for (__m128i &q : v) {
                q = _mm_or_si128(
                    q, _mm_cmpeq_epi32(_mm_and_si128(bits, lanes), lanes));
                bits = _mm_srli_epi32(bits, 4);
            }
        }
        // Flipping the sign bit orders unsigned stamps as signed.
        const __m128i sign = _mm_set1_epi32(INT32_MIN);
        for (__m128i &q : v)
            q = _mm_xor_si128(q, sign);
        __m128i m = min32(min32(v[0], v[1]), min32(v[2], v[3]));
        m = min32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
        m = min32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
        const unsigned lowest =
            equalLanes16(v, m) & ~static_cast<unsigned>(pinned);
        return lowest != 0
                   ? static_cast<unsigned>(std::countr_zero(lowest))
                   : kNoWay;
    }
#endif
    unsigned best = kNoWay;
    for (unsigned w = 0; w < cfg.ways; ++w) {
        if ((pinned >> w) & 1)
            continue;
        if (best == kNoWay || stamps[w] < stamps[best])
            best = w;
    }
    return best;
}

std::uint32_t
Cache::nextUseStamp()
{
    if (useCounter >= cfg.useStampRenormThreshold)
        renormalizeUseStamps();
    return static_cast<std::uint32_t>(++useCounter);
}

void
Cache::renormalizeUseStamps()
{
    // Dense-rank the live stamps. The policies only ever compare
    // stamps, so any order-preserving remap (ties included) is
    // behavior-identical; nonzero ranks start at 1 so 0 stays
    // strictly below every valid line's stamp, the invariant that
    // makes the min-stamp victim pick invalid-first.
    std::vector<std::uint32_t> sorted;
    sorted.reserve(lineStamp.size());
    for (std::uint32_t stamp : lineStamp) {
        if (stamp != 0)
            sorted.push_back(stamp);
    }
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()),
                 sorted.end());
    for (std::uint32_t &stamp : lineStamp) {
        if (stamp != 0) {
            stamp = static_cast<std::uint32_t>(
                std::lower_bound(sorted.begin(), sorted.end(), stamp) -
                sorted.begin() + 1);
        }
    }
    useCounter = sorted.size();
}

std::size_t
Cache::probe(Addr line_addr)
{
    const std::size_t base =
        static_cast<std::size_t>(setIndex(line_addr)) * cfg.ways;
    const unsigned way = matchWay(base, tagOf(line_addr));
    if (way == kNoWay)
        return kNoLine;
    const std::size_t index = base + way;
    // FIFO keeps the fill timestamp; the others promote.
    if (cfg.replacement != ReplacementPolicy::Fifo)
        lineStamp[index] = nextUseStamp();
    lineMeta[index] &= static_cast<std::uint8_t>(
        ~kRrpvMask); // SRRIP: re-referenced -> near
    return index;
}

unsigned
Cache::selectVictim(std::size_t base, std::uint64_t pinned)
{
    if (cfg.replacement == ReplacementPolicy::Random) {
        // Deterministic xorshift over unpinned ways.
        const unsigned candidates =
            cfg.ways - static_cast<unsigned>(std::popcount(pinned));
        victimSeed ^= victimSeed << 13;
        victimSeed ^= victimSeed >> 7;
        victimSeed ^= victimSeed << 17;
        unsigned pick = static_cast<unsigned>(victimSeed % candidates);
        unsigned w = 0;
        while (((pinned >> w) & 1) || pick-- != 0)
            ++w;
        return w;
    }
    // SRRIP: evict an unpinned line with maximal RRPV (3); age the
    // unpinned lines until one appears.
    while (true) {
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (!((pinned >> w) & 1) &&
                (lineMeta[base + w] & kRrpvMask) == kRrpvMask) {
                return w;
            }
        }
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (!((pinned >> w) & 1)) {
                lineMeta[base + w] = static_cast<std::uint8_t>(
                    lineMeta[base + w] + (1u << kRrpvShift));
            }
        }
    }
}

std::size_t
Cache::fill(Addr line_addr, bool timing)
{
    // Any fill may evict the line behind the duplicate-access fast
    // path (timing fills and pins included); drop the memo.
    lastFunctionalAddr = ~Addr{0};
    const std::uint64_t set = setIndex(line_addr);
    const std::size_t base = static_cast<std::size_t>(set) * cfg.ways;
    const std::uint64_t pinned = setPinned[set];

    // Invalid lines win outright; otherwise the policy picks among
    // unpinned lines. Under LRU/FIFO invalid lines carry a zero use
    // stamp, strictly below every valid line's, so the min-stamp
    // pick is both rules at once.
    unsigned way;
    if (cfg.replacement == ReplacementPolicy::Lru ||
        cfg.replacement == ReplacementPolicy::Fifo) {
        way = victimWay(base, pinned);
    } else {
        way = matchWay(base, kInvalidTag);
        if (way == kNoWay)
            way = selectVictim(base, pinned);
    }
    installAt(base + way, line_addr, timing);
    return base + way;
}

[[gnu::always_inline]] inline void
Cache::installAt(std::size_t victim, Addr line_addr, bool timing)
{
    const std::uint64_t set = setIndex(line_addr);
    if (lineTag[victim] != kInvalidTag) {
        ++statCounters.evictions;
        if (lineMeta[victim] & kLineDirty) {
            ++statCounters.writebacks;
            // Reconstruct the victim's address for the writeback.
            const Addr victim_addr =
                (static_cast<Addr>(lineTag[victim]) * (setMask + 1) +
                 set) *
                kCachelineBytes;
            // Victim classes are not tracked per line; dirty victims
            // are always output features in the modeled dataflows.
            MemRequest writeback{victim_addr, MemOp::Write,
                                 TrafficClass::FeatureOut};
            if (timing)
                dram.access(writeback, nullptr);
            else
                functionalTraffic.add(MemOp::Write,
                                      TrafficClass::FeatureOut);
        }
    }

    lineTag[victim] = tagOf(line_addr);
    lineStamp[victim] = nextUseStamp();
    // SRRIP inserts at a distant re-reference prediction (2): a line
    // must prove reuse before it may displace proven lines.
    lineMeta[victim] = 2 << kRrpvShift;
}

void
Cache::access(const MemRequest &request, MemCallback done)
{
    SGCN_ASSERT(isAligned(request.lineAddr, kCachelineBytes),
                "cache request not line-aligned: ", request.lineAddr);

    const std::size_t hit = probe(request.lineAddr);
    if (hit != kNoLine) {
        ++statCounters.hits;
        if (request.op == MemOp::Write)
            lineMeta[hit] |= kLineDirty;
        if (done)
            events.scheduleAfter(cfg.hitLatency, std::move(done));
        return;
    }

    ++statCounters.misses;

    if (MshrEntry *mshr = mshrFind(request.lineAddr)) {
        ++statCounters.mshrCoalesced;
        mshr->anyWrite |= (request.op == MemOp::Write);
        if (done)
            mshrPushTarget(*mshr, std::move(done));
        return;
    }

    if (mshrCount >= cfg.mshrs) {
        pendingQueue.emplace_back(request, std::move(done));
        return;
    }

    startMiss(request, std::move(done));
}

void
Cache::accessBurst(const AccessPlan &plan, MemOp op, TrafficClass cls,
                   MemCallback done)
{
    const std::uint64_t total = plan.totalLines();
    if (total == 0) {
        if (done)
            done();
        return;
    }
    BurstPool::Node *node =
        bursts.join(static_cast<std::uint32_t>(total), std::move(done));
    plan.forEachLine([&](Addr line) {
        access(MemRequest{line, op, cls}, BurstPool::part(node));
    });
}

void
Cache::accessBurstRmw(const AccessPlan &plan, TrafficClass cls,
                      MemCallback done)
{
    const std::uint64_t total = plan.totalLines();
    if (total == 0) {
        if (done)
            done();
        return;
    }
    BurstPool::Node *node = bursts.join(
        static_cast<std::uint32_t>(2 * total), std::move(done));
    plan.forEachLine([&](Addr line) {
        access(MemRequest{line, MemOp::Read, cls},
               BurstPool::part(node));
        access(MemRequest{line, MemOp::Write, cls},
               BurstPool::part(node));
    });
}

void
Cache::startMiss(const MemRequest &request, MemCallback done)
{
    MshrEntry &mshr = mshrAllocate(request.lineAddr);
    mshr.anyWrite = (request.op == MemOp::Write);
    if (done)
        mshrPushTarget(mshr, std::move(done));

    // Write-allocate: fetch the line before merging the write. The
    // fetch is tagged with the requester's traffic class so the
    // off-chip breakdown attributes it correctly.
    MemRequest fetch{request.lineAddr, MemOp::Read, request.cls};
    const Addr line_addr = request.lineAddr;
    dram.access(fetch, [this, line_addr] { finishMiss(line_addr); });
}

void
Cache::finishMiss(Addr line_addr)
{
    MshrEntry *mshr = mshrFind(line_addr);
    SGCN_ASSERT(mshr != nullptr, "fill for unknown MSHR");

    const std::size_t line = fill(line_addr, true);
    if (mshr->anyWrite)
        lineMeta[line] |= kLineDirty;

    // Targets are only scheduled (never invoked synchronously), so
    // dispatching straight out of the entry cannot re-enter the
    // table before the erase below.
    mshrDispatchTargets(*mshr);
    mshrErase(static_cast<std::size_t>(mshr - mshrSlots.data()));

    drainPendingQueue();
}

void
Cache::drainPendingQueue()
{
    while (pendingHead < pendingQueue.size() &&
           mshrCount < cfg.mshrs) {
        auto [request, done] = std::move(pendingQueue[pendingHead]);
        if (++pendingHead == pendingQueue.size()) {
            pendingQueue.clear();
            pendingHead = 0;
        }

        // Re-check the tag array: an earlier fill may have satisfied
        // this line already.
        const std::size_t hit = probe(request.lineAddr);
        if (hit != kNoLine) {
            ++statCounters.hits;
            if (request.op == MemOp::Write)
                lineMeta[hit] |= kLineDirty;
            if (done)
                events.scheduleAfter(cfg.hitLatency, std::move(done));
            continue;
        }
        if (MshrEntry *mshr = mshrFind(request.lineAddr)) {
            ++statCounters.mshrCoalesced;
            mshr->anyWrite |= (request.op == MemOp::Write);
            if (done)
                mshrPushTarget(*mshr, std::move(done));
            continue;
        }
        startMiss(request, std::move(done));
    }
}

void
Cache::accessPlanFunctional(const AccessPlan &plan, MemOp op,
                            TrafficClass cls)
{
    for (unsigned r = 0; r < plan.numRuns; ++r)
        accessRunFunctional(plan.runs[r].addr, plan.runs[r].lines, op,
                            cls);
}

std::uint32_t
Cache::accessRunFunctional(Addr line_addr, std::uint32_t lines,
                           MemOp op, TrafficClass cls)
{
    return runFunctional(line_addr, lines, op == MemOp::Write, false,
                         cls);
}

void
Cache::accessRunRmwFunctional(Addr line_addr, std::uint32_t lines,
                              TrafficClass cls)
{
    runFunctional(line_addr, lines, true, true, cls);
    statCounters.hits += lines;
}

std::uint32_t
Cache::runFunctional(Addr line_addr, std::uint32_t lines, bool write,
                     bool rmw, TrafficClass cls)
{
    // Back-to-back accesses to one line (a run starting where the
    // last one ended) are hits on an already-MRU line: skip the tag
    // match and the LRU promotion (the skipped useCounter tick shifts
    // later stamps uniformly, preserving their order and thus every
    // future eviction).
    std::uint32_t hit_lines = 0;
    if (cfg.replacement == ReplacementPolicy::Lru ||
        cfg.replacement == ReplacementPolicy::Fifo) {
        // One fused step per line: the tag match, then on a miss the
        // victim pick over the unpinned ways. RRPV bookkeeping is
        // dead under these policies and skipped.
        const bool promote = cfg.replacement != ReplacementPolicy::Fifo;
        for (std::uint32_t i = 0; i < lines;
             ++i, line_addr += kCachelineBytes) {
            std::size_t index = lastFunctionalIndex;
            if (line_addr == lastFunctionalAddr) {
                ++hit_lines;
            } else {
                const std::uint64_t set = setIndex(line_addr);
                const std::size_t base =
                    static_cast<std::size_t>(set) * cfg.ways;
                const unsigned way = matchWay(base, tagOf(line_addr));
                if (way != kNoWay) {
                    ++hit_lines;
                    index = base + way;
                    if (promote)
                        lineStamp[index] = nextUseStamp();
                } else {
                    index = base + victimWay(base, setPinned[set]);
                    installAt(index, line_addr, false);
                }
                lastFunctionalAddr = line_addr;
                lastFunctionalIndex = index;
            }
            if (write)
                lineMeta[index] |= kLineDirty;
        }
    } else {
        for (std::uint32_t i = 0; i < lines;
             ++i, line_addr += kCachelineBytes) {
            std::size_t index = lastFunctionalIndex;
            if (line_addr == lastFunctionalAddr) {
                ++hit_lines;
                lineMeta[index] &= static_cast<std::uint8_t>(
                    ~kRrpvMask); // as probe would
            } else {
                index = probe(line_addr);
                if (index != kNoLine)
                    ++hit_lines;
                else
                    index = fill(line_addr, false);
                lastFunctionalAddr = line_addr;
                lastFunctionalIndex = index;
            }
            if (write)
                lineMeta[index] |= kLineDirty;
            // The write half of a read-modify-write re-references
            // the line the read left.
            if (rmw)
                lineMeta[index] &= static_cast<std::uint8_t>(~kRrpvMask);
        }
    }
    statCounters.hits += hit_lines;
    statCounters.misses += lines - hit_lines;
    if (hit_lines != lines)
        functionalTraffic.add(MemOp::Read, cls, lines - hit_lines);
    return hit_lines;
}

bool
Cache::pin(Addr line_addr, TrafficClass cls)
{
    const std::uint64_t set = setIndex(line_addr);
    // Leave at least half the ways unpinned so the set stays usable
    // and every victim pick has a candidate.
    if (static_cast<unsigned>(std::popcount(setPinned[set])) >=
        cfg.ways / 2)
        return false;

    // A hit promotes the pinned line above the memo's line, which
    // is then no longer MRU.
    lastFunctionalAddr = ~Addr{0};
    std::size_t line = probe(line_addr);
    if (line == kNoLine) {
        functionalTraffic.add(MemOp::Read, cls);
        line = fill(line_addr, false);
    }
    setPinned[set] |= std::uint64_t{1}
                      << (line - static_cast<std::size_t>(set) * cfg.ways);
    return true;
}

void
Cache::unpinAll()
{
    std::fill(setPinned.begin(), setPinned.end(), 0);
}

void
Cache::flush()
{
    for (std::size_t i = 0; i < lineTag.size(); ++i) {
        if (lineTag[i] != kInvalidTag && (lineMeta[i] & kLineDirty)) {
            ++statCounters.writebacks;
            functionalTraffic.add(MemOp::Write,
                                  TrafficClass::FeatureOut);
        }
    }
    std::fill(lineTag.begin(), lineTag.end(), kInvalidTag);
    std::fill(lineStamp.begin(), lineStamp.end(), 0);
    std::fill(lineMeta.begin(), lineMeta.end(), 0);
    std::fill(setPinned.begin(), setPinned.end(), 0);
    lastFunctionalAddr = ~Addr{0};
}

void
Cache::repeatSince(const Tally &mark, std::uint64_t extra)
{
    const auto again = [extra](std::uint64_t &now, std::uint64_t then) {
        now += (now - then) * extra;
    };
    again(statCounters.hits, mark.stats.hits);
    again(statCounters.misses, mark.stats.misses);
    again(statCounters.mshrCoalesced, mark.stats.mshrCoalesced);
    again(statCounters.evictions, mark.stats.evictions);
    again(statCounters.writebacks, mark.stats.writebacks);
    for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
        again(functionalTraffic.readLines[c], mark.traffic.readLines[c]);
        again(functionalTraffic.writeLines[c],
              mark.traffic.writeLines[c]);
    }
}

bool
Cache::lockstep(Addr base, std::uint64_t row_bytes,
                std::uint64_t slice_bytes) const
{
    const std::uint64_t row_lines = row_bytes / kCachelineBytes;
    const bool own_sets = cfg.replacement == ReplacementPolicy::Lru ||
                          cfg.replacement == ReplacementPolicy::Fifo ||
                          cfg.replacement == ReplacementPolicy::Srrip;
    return own_sets && row_lines != 0 &&
           row_bytes % kCachelineBytes == 0 &&
           (setMask + 1) % row_lines == 0 && base % row_bytes == 0 &&
           slice_bytes % kCachelineBytes == 0;
}

} // namespace sgcn
