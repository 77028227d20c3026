#include "mem/cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace sgcn
{

Cache::Cache(const CacheConfig &config, Dram &dram_module,
             EventQueue &queue)
    : cfg(config), dram(dram_module), events(queue)
{
    SGCN_ASSERT(cfg.ways > 0 && cfg.sizeBytes > 0);
    const std::uint64_t num_sets = cfg.numSets();
    SGCN_ASSERT(num_sets > 0 && isPowerOfTwo(num_sets),
                "cache sets must be a power of two, got ", num_sets);
    const std::size_t lines =
        static_cast<std::size_t>(num_sets) * cfg.ways;
    lineTagUse.assign(lines, makeEntry(kInvalidTag, 0));
    lineMeta.assign(lines, 0);
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

std::uint64_t
Cache::tagOf(Addr line_addr) const
{
    return (line_addr / kCachelineBytes) >> setShift;
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
    // strictly below every valid line's stamp — the invariant the
    // fused invalid-first/min-use victim scan relies on.
    std::vector<std::uint32_t> sorted;
    sorted.reserve(lineTagUse.size());
    for (std::uint64_t entry : lineTagUse) {
        if (entryUse(entry) != 0)
            sorted.push_back(entryUse(entry));
    }
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()),
                 sorted.end());
    for (std::uint64_t &entry : lineTagUse) {
        const std::uint32_t use = entryUse(entry);
        if (use != 0) {
            const auto rank = static_cast<std::uint32_t>(
                std::lower_bound(sorted.begin(), sorted.end(), use) -
                sorted.begin() + 1);
            entry = makeEntry(entryTag(entry), rank);
        }
    }
    useCounter = sorted.size();
}

std::size_t
Cache::probe(Addr line_addr)
{
    const std::size_t base =
        static_cast<std::size_t>(setIndex(line_addr)) * cfg.ways;
    const std::uint64_t tag = tagOf(line_addr);
    SGCN_ASSERT(tag < kInvalidTag, "line address past the 32-bit "
                "tag range: ", line_addr);
    const std::uint64_t *entries = lineTagUse.data() + base;
    for (unsigned w = 0; w < cfg.ways; ++w) {
        if (entryTag(entries[w]) == tag) {
            const std::size_t index = base + w;
            // FIFO keeps the fill timestamp; the others promote.
            if (cfg.replacement != ReplacementPolicy::Fifo) {
                lineTagUse[index] = makeEntry(
                    static_cast<std::uint32_t>(tag), nextUseStamp());
            }
            lineMeta[index] &= static_cast<std::uint8_t>(
                ~kRrpvMask); // SRRIP: re-referenced -> near
            return index;
        }
    }
    return kNoLine;
}

std::size_t
Cache::selectVictim(std::size_t base)
{
    // The pinned checks only matter while DAVC pins are live; the
    // global count lets the common case scan flag-free.
    const bool pins = pinnedLines != 0;
    switch (cfg.replacement) {
      case ReplacementPolicy::Lru:
      case ReplacementPolicy::Fifo: {
        std::size_t victim = kNoLine;
        std::uint32_t best = ~0u;
        for (unsigned w = 0; w < cfg.ways; ++w) {
            const std::size_t index = base + w;
            if (pins && (lineMeta[index] & kLinePinned))
                continue;
            if (victim == kNoLine ||
                entryUse(lineTagUse[index]) < best) {
                victim = index;
                best = entryUse(lineTagUse[index]);
            }
        }
        return victim;
      }
      case ReplacementPolicy::Random: {
        // Deterministic xorshift over unpinned ways.
        unsigned candidates = 0;
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (!pins || !(lineMeta[base + w] & kLinePinned))
                ++candidates;
        }
        if (candidates == 0)
            return kNoLine;
        victimSeed ^= victimSeed << 13;
        victimSeed ^= victimSeed >> 7;
        victimSeed ^= victimSeed << 17;
        unsigned pick =
            static_cast<unsigned>(victimSeed % candidates);
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (pins && (lineMeta[base + w] & kLinePinned))
                continue;
            if (pick-- == 0)
                return base + w;
        }
        return kNoLine;
      }
      case ReplacementPolicy::Srrip: {
        // Evict a line with maximal RRPV (3); age everyone until one
        // appears.
        while (true) {
            for (unsigned w = 0; w < cfg.ways; ++w) {
                const std::size_t index = base + w;
                if ((!pins || !(lineMeta[index] & kLinePinned)) &&
                    (lineMeta[index] & kRrpvMask) == kRrpvMask) {
                    return index;
                }
            }
            bool aged = false;
            for (unsigned w = 0; w < cfg.ways; ++w) {
                const std::size_t index = base + w;
                if ((!pins || !(lineMeta[index] & kLinePinned)) &&
                    (lineMeta[index] & kRrpvMask) != kRrpvMask) {
                    lineMeta[index] = static_cast<std::uint8_t>(
                        lineMeta[index] + (1u << kRrpvShift));
                    aged = true;
                }
            }
            if (!aged)
                return kNoLine;
        }
      }
    }
    return kNoLine;
}

std::size_t
Cache::fill(Addr line_addr, bool timing, TrafficClass cls)
{
    // Any fill may evict the line behind the duplicate-access fast
    // path (timing fills and pins included); drop the memo.
    lastFunctionalAddr = ~Addr{0};
    const std::size_t base =
        static_cast<std::size_t>(setIndex(line_addr)) * cfg.ways;

    // Invalid lines win outright; otherwise the policy picks among
    // unpinned lines. Fully pinned sets fall back to plain LRU so
    // pinning can never deadlock the cache.
    std::size_t victim = kNoLine;
    if (cfg.replacement == ReplacementPolicy::Lru ||
        cfg.replacement == ReplacementPolicy::Fifo) {
        // Invalid lines carry a zero use stamp, strictly below every
        // valid line's, so a single min-use scan implements both the
        // invalid-first rule and the LRU/FIFO policy — one pass on
        // the dominant (streaming-miss) path instead of three.
        const std::uint64_t *entries = lineTagUse.data() + base;
        if (pinnedLines == 0) {
            unsigned bestw = 0;
            for (unsigned w = 1; w < cfg.ways; ++w) {
                if (entryUse(entries[w]) < entryUse(entries[bestw]))
                    bestw = w;
            }
            victim = base + bestw;
        } else {
            std::uint32_t best = ~0u;
            for (unsigned w = 0; w < cfg.ways; ++w) {
                if (lineMeta[base + w] & kLinePinned)
                    continue;
                if (victim == kNoLine || entryUse(entries[w]) < best) {
                    victim = base + w;
                    best = entryUse(entries[w]);
                }
            }
        }
    } else {
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (entryTag(lineTagUse[base + w]) == kInvalidTag) {
                victim = base + w;
                break;
            }
        }
        if (victim == kNoLine)
            victim = selectVictim(base);
    }
    if (victim == kNoLine) {
        std::uint32_t best = ~0u;
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (victim == kNoLine ||
                entryUse(lineTagUse[base + w]) < best) {
                victim = base + w;
                best = entryUse(lineTagUse[base + w]);
            }
        }
    }
    installAt(victim, line_addr, timing, cls);
    return victim;
}

void
Cache::installAt(std::size_t victim, Addr line_addr, bool timing,
                 TrafficClass cls)
{
    if (entryTag(lineTagUse[victim]) != kInvalidTag) {
        ++statCounters.evictions;
        if (lineMeta[victim] & kLineDirty) {
            ++statCounters.writebacks;
            // Reconstruct the victim's address for the writeback.
            const Addr victim_addr =
                (static_cast<Addr>(entryTag(lineTagUse[victim])) *
                     (setMask + 1) +
                 setIndex(line_addr)) *
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
            (void)cls;
        }
    }

    if (lineMeta[victim] & kLinePinned)
        --pinnedLines;
    const std::uint64_t tag = tagOf(line_addr);
    SGCN_ASSERT(tag < kInvalidTag, "line address past the 32-bit "
                "tag range: ", line_addr);
    lineTagUse[victim] = makeEntry(static_cast<std::uint32_t>(tag),
                                   nextUseStamp());
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
    mshr.cls = request.cls;
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

    const std::size_t line = fill(line_addr, true, mshr->cls);
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

bool
Cache::accessFunctional(const MemRequest &request)
{
    SGCN_ASSERT(isAligned(request.lineAddr, kCachelineBytes));
    // Back-to-back accesses to one line (the read-modify-write
    // partial-sum pattern) are guaranteed hits on an already-MRU
    // line: skip the tag scan and the LRU promotion (the skipped
    // useCounter tick shifts later stamps uniformly, preserving
    // their order and thus every future eviction decision).
    if (request.lineAddr == lastFunctionalAddr) {
        ++statCounters.hits;
        if (request.op == MemOp::Write)
            lineMeta[lastFunctionalIndex] |= kLineDirty;
        lineMeta[lastFunctionalIndex] &=
            static_cast<std::uint8_t>(~kRrpvMask); // as probe would
        return true;
    }
    const std::size_t hit = probe(request.lineAddr);
    if (hit != kNoLine) {
        lastFunctionalAddr = request.lineAddr;
        lastFunctionalIndex = hit;
        ++statCounters.hits;
        if (request.op == MemOp::Write)
            lineMeta[hit] |= kLineDirty;
        return true;
    }
    ++statCounters.misses;
    functionalTraffic.add(MemOp::Read, request.cls);
    const std::size_t line = fill(request.lineAddr, false, request.cls);
    lastFunctionalAddr = request.lineAddr;
    lastFunctionalIndex = line;
    if (request.op == MemOp::Write)
        lineMeta[line] |= kLineDirty;
    return false;
}

void
Cache::accessPlanFunctional(const AccessPlan &plan, MemOp op,
                            TrafficClass cls)
{
    for (unsigned r = 0; r < plan.numRuns; ++r)
        accessRunFunctional(plan.runs[r].addr, plan.runs[r].lines, op,
                            cls);
}

void
Cache::accessRunFunctional(Addr line_addr, std::uint32_t lines,
                           MemOp op, TrafficClass cls)
{
    // Per-line behavior is accessFunctional's exactly; statistics
    // post once per run. Under LRU/FIFO with no live pins, the tag
    // scan and the min-stamp victim scan fuse into one pass over
    // the set's packed tag/stamp entries (RRPV bookkeeping is dead
    // under these policies and skipped).
    const bool write = (op == MemOp::Write);
    const bool fused = (cfg.replacement == ReplacementPolicy::Lru ||
                        cfg.replacement == ReplacementPolicy::Fifo) &&
                       pinnedLines == 0;
    const bool promote = cfg.replacement != ReplacementPolicy::Fifo;
    std::uint32_t hit_lines = 0;
    for (std::uint32_t i = 0; i < lines;
         ++i, line_addr += kCachelineBytes) {
        if (line_addr == lastFunctionalAddr) {
            ++hit_lines;
            if (write)
                lineMeta[lastFunctionalIndex] |= kLineDirty;
            if (!fused) {
                lineMeta[lastFunctionalIndex] &=
                    static_cast<std::uint8_t>(~kRrpvMask);
            }
            continue;
        }
        if (!fused) {
            const std::size_t hit = probe(line_addr);
            if (hit != kNoLine) {
                lastFunctionalAddr = line_addr;
                lastFunctionalIndex = hit;
                ++hit_lines;
                if (write)
                    lineMeta[hit] |= kLineDirty;
                continue;
            }
            const std::size_t line = fill(line_addr, false, cls);
            lastFunctionalAddr = line_addr;
            lastFunctionalIndex = line;
            if (write)
                lineMeta[line] |= kLineDirty;
            continue;
        }
        const std::size_t base =
            static_cast<std::size_t>(setIndex(line_addr)) * cfg.ways;
        const std::uint64_t tag = tagOf(line_addr);
        SGCN_ASSERT(tag < kInvalidTag, "line address past the "
                    "32-bit tag range: ", line_addr);
        std::uint64_t *entries = lineTagUse.data() + base;
        std::size_t hitw = kNoLine;
        unsigned bestw = 0;
        std::uint32_t bestuse = ~0u;
        for (unsigned w = 0; w < cfg.ways; ++w) {
            const std::uint64_t entry = entries[w];
            if (entryTag(entry) == tag) {
                hitw = w;
                break;
            }
            // Invalid lines stamp 0: one min scan is invalid-first
            // plus LRU/FIFO at once (see fill()).
            if (entryUse(entry) < bestuse) {
                bestuse = entryUse(entry);
                bestw = w;
            }
        }
        if (hitw != kNoLine) {
            ++hit_lines;
            if (promote) {
                entries[hitw] = makeEntry(
                    static_cast<std::uint32_t>(tag), nextUseStamp());
            }
            lastFunctionalAddr = line_addr;
            lastFunctionalIndex = base + hitw;
            if (write)
                lineMeta[base + hitw] |= kLineDirty;
            continue;
        }
        const std::size_t victim = base + bestw;
        installAt(victim, line_addr, false, cls);
        lastFunctionalAddr = line_addr;
        lastFunctionalIndex = victim;
        if (write)
            lineMeta[victim] |= kLineDirty;
    }
    statCounters.hits += hit_lines;
    statCounters.misses += lines - hit_lines;
    if (hit_lines != lines)
        functionalTraffic.add(MemOp::Read, cls, lines - hit_lines);
}

bool
Cache::pin(Addr line_addr, TrafficClass cls)
{
    const std::size_t base =
        static_cast<std::size_t>(setIndex(line_addr)) * cfg.ways;
    unsigned pinned = 0;
    for (unsigned w = 0; w < cfg.ways; ++w)
        pinned += (lineMeta[base + w] & kLinePinned) ? 1 : 0;
    // Leave at least half the ways unpinned so the set stays usable.
    if (pinned >= cfg.ways / 2)
        return false;

    std::size_t line = probe(line_addr);
    if (line == kNoLine) {
        functionalTraffic.add(MemOp::Read, cls);
        line = fill(line_addr, false, cls);
    }
    if (!(lineMeta[line] & kLinePinned)) {
        lineMeta[line] |= kLinePinned;
        ++pinnedLines;
    }
    return true;
}

void
Cache::unpinAll()
{
    if (pinnedLines == 0)
        return;
    for (std::uint8_t &meta : lineMeta)
        meta &= static_cast<std::uint8_t>(~kLinePinned);
    pinnedLines = 0;
}

void
Cache::flush()
{
    for (std::size_t i = 0; i < lineTagUse.size(); ++i) {
        if (entryTag(lineTagUse[i]) != kInvalidTag &&
            (lineMeta[i] & kLineDirty)) {
            ++statCounters.writebacks;
            functionalTraffic.add(MemOp::Write,
                                  TrafficClass::FeatureOut);
        }
        lineTagUse[i] = makeEntry(kInvalidTag, 0);
        lineMeta[i] = 0;
    }
    pinnedLines = 0;
    lastFunctionalAddr = ~Addr{0};
}

} // namespace sgcn
