/**
 * @file
 * Replacement-policy tests: behavioural differences between LRU,
 * FIFO, Random, and SRRIP, including the streaming-thrash case
 * SRRIP exists for (the SV-C working-set-overflow scenario), a
 * differential check of the cache's LRU/FIFO set kernels against a
 * plain per-set model, and one of the lockstep rule the fast dense
 * sweeps rely on.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "mem/cache.hh"
#include "sim/rng.hh"

namespace sgcn
{
namespace
{

struct PolicyHarness
{
    EventQueue events;
    Dram dram{DramConfig::hbm2(), events};
    CacheConfig config;
    std::unique_ptr<Cache> cache;

    explicit PolicyHarness(
        ReplacementPolicy policy, unsigned ways = 4,
        std::uint64_t size = 16 * 1024,
        std::uint32_t renorm_threshold =
            CacheConfig{}.useStampRenormThreshold)
    {
        config.sizeBytes = size;
        config.ways = ways;
        config.replacement = policy;
        config.useStampRenormThreshold = renorm_threshold;
        cache = std::make_unique<Cache>(config, dram, events);
    }

    bool
    touch(Addr line)
    {
        return cache->accessRunFunctional(line, 1, MemOp::Read,
                                          TrafficClass::FeatureIn) == 1;
    }

    Addr
    conflicting(std::uint64_t i) const
    {
        return i * config.numSets() * kCachelineBytes;
    }
};

TEST(Replacement, PolicyNames)
{
    EXPECT_STREQ(replacementPolicyName(ReplacementPolicy::Lru), "LRU");
    EXPECT_STREQ(replacementPolicyName(ReplacementPolicy::Srrip),
                 "SRRIP");
}

TEST(Replacement, FifoIgnoresReuse)
{
    // Touch A..D (fills set), re-touch A, then add E.
    // LRU evicts B (A was refreshed); FIFO evicts A (oldest fill).
    PolicyHarness lru(ReplacementPolicy::Lru);
    PolicyHarness fifo(ReplacementPolicy::Fifo);
    for (auto *h : {&lru, &fifo}) {
        for (std::uint64_t i = 0; i < 4; ++i)
            h->touch(h->conflicting(i));
        h->touch(h->conflicting(0)); // reuse A
        h->touch(h->conflicting(4)); // insert E
    }
    EXPECT_TRUE(lru.touch(lru.conflicting(0)));   // A survived
    EXPECT_FALSE(fifo.touch(fifo.conflicting(0))); // A evicted
}

TEST(Replacement, SrripProtectsReusedSetFromStreaming)
{
    // Two proven-hot lines (re-referenced once at warm-up, then once
    // per round) against bursts of single-use streaming lines through
    // the same set. SRRIP inserts streams at a distant RRPV so they
    // evict each other; LRU lets every burst flush the hot lines —
    // the SV-C thrashing pattern.
    auto run = [](ReplacementPolicy policy) {
        PolicyHarness h(policy);
        // Warm-up: fill and immediately re-reference the hot lines.
        for (std::uint64_t hot = 0; hot < 2; ++hot) {
            h.touch(h.conflicting(hot));
            h.touch(h.conflicting(hot));
        }
        std::uint64_t hot_hits = 0;
        std::uint64_t stream_tag = 100;
        for (int round = 0; round < 200; ++round) {
            for (std::uint64_t hot = 0; hot < 2; ++hot)
                hot_hits += h.touch(h.conflicting(hot)) ? 1 : 0;
            // A burst of 4 never-reused lines through the same set.
            for (int burst = 0; burst < 4; ++burst)
                h.touch(h.conflicting(stream_tag++));
        }
        return hot_hits;
    };
    const std::uint64_t srrip_hits = run(ReplacementPolicy::Srrip);
    const std::uint64_t lru_hits = run(ReplacementPolicy::Lru);
    EXPECT_GT(srrip_hits, 300u); // ~2 hits x 200 rounds
    EXPECT_LT(lru_hits, 50u);
}

TEST(Replacement, RandomIsDeterministicAcrossRuns)
{
    auto run = [] {
        PolicyHarness h(ReplacementPolicy::Random);
        Rng rng(5);
        std::uint64_t hits = 0;
        for (int i = 0; i < 5000; ++i)
            hits += h.touch(h.conflicting(rng.uniformInt(8))) ? 1 : 0;
        return hits;
    };
    EXPECT_EQ(run(), run());
}

TEST(Replacement, UseStampRenormalizationIsOrderPreserving)
{
    // Drive a cache whose use-stamp counter renormalizes every few
    // accesses against one that never renormalizes within the test.
    // Renormalization dense-ranks the live stamps (order-preserving,
    // with stamp 0 reserved for invalid lines), so hit/miss behaviour
    // — i.e. every LRU victim decision — must be unchanged.
    auto run = [](std::uint32_t threshold) {
        PolicyHarness h(ReplacementPolicy::Lru, 4, 16 * 1024, threshold);
        Rng rng(23);
        std::uint64_t hits = 0;
        for (int i = 0; i < 4000; ++i) {
            hits += h.touch(h.conflicting(rng.uniformInt(7))) ? 1 : 0;
            hits <<= 1; // position-sensitive: orders must match too
            hits += hits >> 48;
        }
        return hits;
    };
    EXPECT_EQ(run(16), run(0xffff'fff0u));
}

class PolicySweep
    : public ::testing::TestWithParam<ReplacementPolicy>
{
};

TEST_P(PolicySweep, HitRateSaneOnZipfTraffic)
{
    PolicyHarness h(GetParam(), 8, 64 * 1024);
    Rng rng(17);
    std::uint64_t hits = 0;
    const int accesses = 20000;
    for (int i = 0; i < accesses; ++i) {
        // Zipf-ish: 80% of touches to 64 hot lines, rest uniform.
        const Addr line =
            rng.bernoulli(0.8)
                ? rng.uniformInt(64) * kCachelineBytes
                : rng.uniformInt(1 << 16) * kCachelineBytes;
        hits += h.touch(line) ? 1 : 0;
    }
    const double hit_rate = static_cast<double>(hits) / accesses;
    EXPECT_GT(hit_rate, 0.6);
    EXPECT_LT(hit_rate, 0.95);
}

TEST_P(PolicySweep, PinningSurvivesEveryPolicy)
{
    PolicyHarness h(GetParam());
    ASSERT_TRUE(h.cache->pin(0, TrafficClass::FeatureIn));
    for (std::uint64_t i = 1; i < 64; ++i)
        h.touch(h.conflicting(i));
    EXPECT_TRUE(h.touch(0));
}

TEST_P(PolicySweep, RmwRunMatchesReadThenWritePairs)
{
    // One read-modify-write run must leave the cache where a read
    // then a write per line leaves it, under every policy: SRRIP's
    // re-reference by the write and Random's victim stream included.
    // Eight 4-way sets, each contended by ten tags.
    PolicyHarness rmw(GetParam(), 4, 8 * 4 * kCachelineBytes);
    PolicyHarness pairs(GetParam(), 4, 8 * 4 * kCachelineBytes);
    Rng rng(29);
    for (int op = 0; op < 20000; ++op) {
        const Addr line = rmw.conflicting(rng.uniformInt(10)) +
                          rng.uniformInt(8) * kCachelineBytes;
        const auto lines =
            static_cast<std::uint32_t>(1 + rng.uniformInt(4));
        if (rng.bernoulli(0.5)) {
            rmw.cache->accessRunRmwFunctional(line, lines,
                                              TrafficClass::PartialSum);
            for (std::uint32_t i = 0; i < lines; ++i) {
                const Addr at = line + i * kCachelineBytes;
                pairs.cache->accessRunFunctional(at, 1, MemOp::Read,
                                                 TrafficClass::PartialSum);
                pairs.cache->accessRunFunctional(at, 1, MemOp::Write,
                                                 TrafficClass::PartialSum);
            }
        } else {
            const MemOp kind =
                rng.bernoulli(0.3) ? MemOp::Write : MemOp::Read;
            rmw.cache->accessRunFunctional(line, lines, kind,
                                           TrafficClass::FeatureIn);
            pairs.cache->accessRunFunctional(line, lines, kind,
                                             TrafficClass::FeatureIn);
        }
        ASSERT_EQ(rmw.cache->stats().hits, pairs.cache->stats().hits)
            << "op " << op;
        ASSERT_EQ(rmw.cache->stats().misses, pairs.cache->stats().misses)
            << "op " << op;
    }
    rmw.cache->flush();
    pairs.cache->flush();
    EXPECT_EQ(rmw.cache->stats().evictions,
              pairs.cache->stats().evictions);
    EXPECT_EQ(rmw.cache->stats().writebacks,
              pairs.cache->stats().writebacks);
    const TrafficCounters &a = rmw.cache->functionalDramTraffic();
    const TrafficCounters &b = pairs.cache->functionalDramTraffic();
    for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
        EXPECT_EQ(a.readLines[c], b.readLines[c]);
        EXPECT_EQ(a.writeLines[c], b.writeLines[c]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweep,
    ::testing::Values(ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
                      ReplacementPolicy::Random,
                      ReplacementPolicy::Srrip),
    [](const auto &info) {
        return std::string(replacementPolicyName(info.param));
    });

/**
 * The reference the set kernels are checked against: a plain per-set
 * LRU/FIFO cache written from the policies' definitions, with none of
 * the cache's split arrays, vector kernels, stamp renormalization or
 * duplicate-access memo. Invalid lines fill first, then the unpinned
 * way with the oldest stamp (the lowest way on ties); LRU restamps a
 * line on every hit, FIFO only when it fills. Dirty victims write
 * back, and so do dirty lines at a flush.
 */
class ReferenceCache
{
  public:
    CacheStats stats;
    TrafficCounters traffic;

    explicit ReferenceCache(const CacheConfig &config)
        : cfg(config), sets(config.numSets()),
          lines(config.numSets() * config.ways)
    {
    }

    bool
    access(Addr line, bool write, TrafficClass cls)
    {
        if (Line *hit = find(line)) {
            ++stats.hits;
            touch(*hit);
            hit->dirty |= write;
            return true;
        }
        ++stats.misses;
        traffic.add(MemOp::Read, cls);
        install(line).dirty = write;
        return false;
    }

    /** Cache::pin's contract: at most half of a set pinned; a pin
     *  is a hit or a fill but counts as neither. */
    bool
    pin(Addr line, TrafficClass cls)
    {
        Line *set = setOf(line);
        unsigned pinned = 0;
        for (unsigned w = 0; w < cfg.ways; ++w)
            pinned += set[w].pinned ? 1 : 0;
        if (pinned >= cfg.ways / 2)
            return false;
        Line *target = find(line);
        if (target != nullptr) {
            touch(*target);
        } else {
            traffic.add(MemOp::Read, cls);
            target = &install(line);
        }
        target->pinned = true;
        return true;
    }

    void
    unpinAll()
    {
        for (Line &line : lines)
            line.pinned = false;
    }

    void
    flush()
    {
        for (Line &line : lines) {
            if (line.valid && line.dirty)
                writeBack();
            line = Line{};
        }
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        bool pinned = false;
        std::uint64_t tag = 0;
        std::uint64_t stamp = 0;
    };

    Line *
    setOf(Addr line)
    {
        return &lines[line / kCachelineBytes % sets * cfg.ways];
    }

    Line *
    find(Addr line)
    {
        Line *set = setOf(line);
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (set[w].valid &&
                set[w].tag == line / kCachelineBytes / sets)
                return &set[w];
        }
        return nullptr;
    }

    void
    touch(Line &line)
    {
        if (cfg.replacement == ReplacementPolicy::Lru)
            line.stamp = ++clock;
    }

    void
    writeBack()
    {
        ++stats.writebacks;
        traffic.add(MemOp::Write, TrafficClass::FeatureOut);
    }

    Line &
    install(Addr line)
    {
        Line *set = setOf(line);
        Line *victim = nullptr;
        for (unsigned w = 0; w < cfg.ways && victim == nullptr; ++w) {
            if (!set[w].valid)
                victim = &set[w];
        }
        if (victim == nullptr) {
            for (unsigned w = 0; w < cfg.ways; ++w) {
                if (!set[w].pinned &&
                    (victim == nullptr || set[w].stamp < victim->stamp))
                    victim = &set[w];
            }
        }
        if (victim->valid) {
            ++stats.evictions;
            if (victim->dirty)
                writeBack();
        }
        *victim = Line{true, false, false,
                       line / kCachelineBytes / sets, ++clock};
        return *victim;
    }

    CacheConfig cfg;
    std::uint64_t sets;
    std::vector<Line> lines;
    std::uint64_t clock = 0;
};

class SetKernelDifferential
    : public ::testing::TestWithParam<
          std::tuple<ReplacementPolicy, unsigned, std::uint32_t>>
{
};

TEST_P(SetKernelDifferential, MatchesThePlainReference)
{
    const auto [policy, ways, renorm_threshold] = GetParam();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(seed);
        // Eight sets, each contended by 2 * ways + 2 tags.
        PolicyHarness h(policy, ways, 8 * ways * kCachelineBytes,
                        renorm_threshold);
        Cache &cache = *h.cache;
        ReferenceCache ref(h.config);
        Rng rng(seed);
        Addr last = 0;
        for (int op = 0; op < 20000; ++op) {
            const std::uint64_t kind = rng.uniformInt(100);
            // A tenth of the operations start at the last line
            // accessed: the duplicate-access memo's case.
            const Addr line =
                rng.bernoulli(0.1)
                    ? last
                    : h.conflicting(rng.uniformInt(2 * ways + 2)) +
                          rng.uniformInt(8) * kCachelineBytes;
            if (kind < 70) {
                // Single-line reads and writes, then runs of 2-7
                // lines, a third of them writes.
                const bool single = kind < 50;
                const bool write = single ? kind >= 40 : rng.bernoulli(0.3);
                const auto lines = static_cast<std::uint32_t>(
                    single ? 1 : 2 + rng.uniformInt(6));
                std::uint32_t hits = 0;
                for (std::uint32_t i = 0; i < lines; ++i) {
                    hits += ref.access(line + i * kCachelineBytes, write,
                                       TrafficClass::FeatureIn);
                }
                ASSERT_EQ(cache.accessRunFunctional(
                              line, lines,
                              write ? MemOp::Write : MemOp::Read,
                              TrafficClass::FeatureIn),
                          hits)
                    << "op " << op;
                last = line + (lines - 1) * kCachelineBytes;
            } else if (kind < 80) {
                const auto lines =
                    static_cast<std::uint32_t>(1 + rng.uniformInt(4));
                const std::uint64_t before = cache.stats().hits;
                std::uint64_t hits = 0;
                for (std::uint32_t i = 0; i < lines; ++i) {
                    const Addr at = line + i * kCachelineBytes;
                    hits += ref.access(at, false, TrafficClass::PartialSum);
                    hits += ref.access(at, true, TrafficClass::PartialSum);
                }
                cache.accessRunRmwFunctional(line, lines,
                                             TrafficClass::PartialSum);
                ASSERT_EQ(cache.stats().hits - before, hits) << "op " << op;
                last = line + (lines - 1) * kCachelineBytes;
            } else if (kind < 94) {
                ASSERT_EQ(cache.pin(line, TrafficClass::FeatureIn),
                          ref.pin(line, TrafficClass::FeatureIn))
                    << "op " << op;
            } else if (kind < 98) {
                cache.unpinAll();
                ref.unpinAll();
            } else {
                cache.flush();
                ref.flush();
            }
        }
        EXPECT_EQ(cache.stats().hits, ref.stats.hits);
        EXPECT_EQ(cache.stats().misses, ref.stats.misses);
        EXPECT_EQ(cache.stats().evictions, ref.stats.evictions);
        EXPECT_EQ(cache.stats().writebacks, ref.stats.writebacks);
        const TrafficCounters &traffic = cache.functionalDramTraffic();
        for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
            EXPECT_EQ(traffic.readLines[c], ref.traffic.readLines[c]);
            EXPECT_EQ(traffic.writeLines[c], ref.traffic.writeLines[c]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    LruFifo, SetKernelDifferential,
    ::testing::Combine(
        ::testing::Values(ReplacementPolicy::Lru, ReplacementPolicy::Fifo),
        ::testing::Values(2u, 4u, 16u),
        ::testing::Values(16u, CacheConfig{}.useStampRenormThreshold)),
    [](const auto &info) {
        return std::string(replacementPolicyName(std::get<0>(info.param))) +
               "_" + std::to_string(std::get<1>(info.param)) +
               "way_renorm" +
               (std::get<2>(info.param) == 16 ? "16" : "Default");
    });

/**
 * The lockstep rule's promise (Cache::lockstep): over rows whose
 * slices' sets move in lockstep, a cache that runs only the first
 * line of every slice run and repeats its counts for the slice's
 * other lines (repeatSince) counts exactly what a cache running
 * every line counts. Seeded streams over 8-line rows in 32 sets run
 * four layers each, the way a fast layer meets the cache: whole-row
 * pins into the empty cache, issued to both caches as
 * EngineContext::pinDavc issues them, then whole-slice reads and
 * read-modify-writes with an unpinAll now and then, then a flush.
 * The read-modify-write streams cut the row into equal slices of 2
 * lines, since the flush counts every slice's dirty lines with one
 * factor; the read-only streams cut it 3, 3 and 2. A second case
 * lifts the rule from slices to rows, as the fast sweep does: one
 * pass per source tile reads each pick's first line and counts it
 * for the whole row, against slice-by-slice passes of every line.
 */
class LockstepDifferential
    : public ::testing::TestWithParam<
          std::tuple<ReplacementPolicy, unsigned>>
{
};

TEST_P(LockstepDifferential, OneLinePerSliceCountsEveryLine)
{
    const auto [policy, ways] = GetParam();
    constexpr std::uint64_t kRowLines = 8;
    constexpr std::uint64_t kSets = 32;
    constexpr Addr kBase = 0x4000'0000;
    for (const bool rmw : {false, true}) {
        const std::vector<std::uint32_t> slice_lines =
            rmw ? std::vector<std::uint32_t>{2, 2, 2, 2}
                : std::vector<std::uint32_t>{3, 3, 2};
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(std::string(rmw ? "rmw" : "read") + " seed " +
                         std::to_string(seed));
            // The use stamps renormalize every few thousand ticks (at
            // least once per line of the cache, or every tick).
            const auto renorm = static_cast<std::uint32_t>(4 * kSets * ways);
            PolicyHarness full(policy, ways, kSets * ways * kCachelineBytes,
                               renorm);
            PolicyHarness one(policy, ways, kSets * ways * kCachelineBytes,
                              renorm);
            ASSERT_TRUE(one.cache->lockstep(
                kBase, kRowLines * kCachelineBytes,
                slice_lines[0] * kCachelineBytes));
            // Each of the four row groups is contended by 2 * ways + 2
            // rows.
            const std::uint64_t rows = kSets / kRowLines * (2 * ways + 2);
            Rng rng(seed);
            const auto random_row = [&] {
                return kBase +
                       rng.uniformInt(rows) * kRowLines * kCachelineBytes;
            };
            // One slice run, line by line in full and one line plus
            // repeated counts in one.
            const auto run = [&](Addr row, unsigned s, bool write) {
                Addr at = row;
                for (unsigned p = 0; p < s; ++p)
                    at += slice_lines[p] * kCachelineBytes;
                const Cache::Tally mark = one.cache->tally();
                if (write) {
                    full.cache->accessRunRmwFunctional(
                        at, slice_lines[s], TrafficClass::PartialSum);
                    one.cache->accessRunRmwFunctional(
                        at, 1, TrafficClass::PartialSum);
                } else {
                    full.cache->accessRunFunctional(
                        at, slice_lines[s], MemOp::Read,
                        TrafficClass::FeatureIn);
                    one.cache->accessRunFunctional(
                        at, 1, MemOp::Read, TrafficClass::FeatureIn);
                }
                one.cache->repeatSince(mark, slice_lines[s] - 1);
            };
            for (int layer = 0; layer < 4; ++layer) {
                // Up to three rows per way: enough that some sets
                // refuse pins past half their ways.
                const std::uint64_t pinned_rows = rng.uniformInt(3 * ways);
                for (std::uint64_t r = 0; r < pinned_rows; ++r) {
                    const Addr row = random_row();
                    for (std::uint64_t l = 0; l < kRowLines; ++l) {
                        full.cache->pin(row + l * kCachelineBytes,
                                        TrafficClass::FeatureIn);
                        one.cache->pin(row + l * kCachelineBytes,
                                       TrafficClass::FeatureIn);
                    }
                }
                Addr row = kBase;
                unsigned slice = 0;
                for (int op = 0; op < 5000; ++op) {
                    // A tenth of the operations revisit the last slice:
                    // the duplicate-access memo's case in the one-line
                    // cache only.
                    if (!rng.bernoulli(0.1)) {
                        row = random_row();
                        slice = static_cast<unsigned>(
                            rng.uniformInt(slice_lines.size()));
                    }
                    const std::uint64_t kind = rng.uniformInt(100);
                    if (kind < 70) {
                        run(row, slice, false);
                    } else if (kind < 99) {
                        run(row, slice, rmw);
                    } else {
                        full.cache->unpinAll();
                        one.cache->unpinAll();
                    }
                    ASSERT_EQ(one.cache->stats().hits,
                              full.cache->stats().hits)
                        << "layer " << layer << " op " << op;
                    ASSERT_EQ(one.cache->stats().misses,
                              full.cache->stats().misses)
                        << "layer " << layer << " op " << op;
                }
                const Cache::Tally mark = one.cache->tally();
                full.cache->flush();
                one.cache->flush();
                one.cache->repeatSince(mark, slice_lines[0] - 1);
            }
            EXPECT_EQ(one.cache->stats().evictions,
                      full.cache->stats().evictions);
            EXPECT_EQ(one.cache->stats().writebacks,
                      full.cache->stats().writebacks);
            const TrafficCounters &a = one.cache->functionalDramTraffic();
            const TrafficCounters &b = full.cache->functionalDramTraffic();
            for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
                EXPECT_EQ(a.readLines[c], b.readLines[c]);
                EXPECT_EQ(a.writeLines[c], b.writeLines[c]);
            }
        }
    }
}

TEST_P(LockstepDifferential, OneLinePerRowPassCountsEveryLine)
{
    // sweepTileFast's row pass: each source tile's picks run once,
    // reading each row's first line, and the pass's counts repeat for
    // the row's other lines. The full cache runs the picks once per
    // slice, every line of the slice, as the per-slice walk would.
    const auto [policy, ways] = GetParam();
    constexpr std::uint64_t kRowLines = 8;
    constexpr std::uint64_t kSets = 32;
    constexpr Addr kBase = 0x4000'0000;
    const std::vector<std::uint32_t> slice_lines{3, 3, 2};
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto renorm = static_cast<std::uint32_t>(4 * kSets * ways);
        PolicyHarness full(policy, ways, kSets * ways * kCachelineBytes,
                           renorm);
        PolicyHarness one(policy, ways, kSets * ways * kCachelineBytes,
                          renorm);
        ASSERT_TRUE(one.cache->lockstep(kBase, kRowLines * kCachelineBytes,
                                        slice_lines[0] * kCachelineBytes));
        const std::uint64_t rows = kSets / kRowLines * (2 * ways + 2);
        Rng rng(seed);
        const auto random_row = [&] {
            return kBase + rng.uniformInt(rows) * kRowLines * kCachelineBytes;
        };
        std::vector<Addr> pass;
        for (int layer = 0; layer < 4; ++layer) {
            const std::uint64_t pinned_rows = rng.uniformInt(3 * ways);
            for (std::uint64_t r = 0; r < pinned_rows; ++r) {
                const Addr row = random_row();
                for (std::uint64_t l = 0; l < kRowLines; ++l) {
                    full.cache->pin(row + l * kCachelineBytes,
                                    TrafficClass::FeatureIn);
                    one.cache->pin(row + l * kCachelineBytes,
                                   TrafficClass::FeatureIn);
                }
            }
            for (int tile = 0; tile < 12; ++tile) {
                // A tenth of the picks repeat the last one: the
                // duplicate-access memo's case in the one-line cache.
                pass.assign(1, random_row());
                const std::uint64_t picks = 1 + rng.uniformInt(400);
                while (pass.size() < picks) {
                    pass.push_back(rng.bernoulli(0.1) ? pass.back()
                                                      : random_row());
                }
                Addr slice_at = 0;
                for (const std::uint32_t lines : slice_lines) {
                    for (const Addr row : pass) {
                        full.cache->accessRunFunctional(
                            row + slice_at, lines, MemOp::Read,
                            TrafficClass::FeatureIn);
                    }
                    slice_at += lines * kCachelineBytes;
                }
                const Cache::Tally mark = one.cache->tally();
                for (const Addr row : pass) {
                    one.cache->accessRunFunctional(row, 1, MemOp::Read,
                                                   TrafficClass::FeatureIn);
                }
                one.cache->repeatSince(mark, kRowLines - 1);
                ASSERT_EQ(one.cache->stats().hits, full.cache->stats().hits)
                    << "layer " << layer << " tile " << tile;
                ASSERT_EQ(one.cache->stats().misses,
                          full.cache->stats().misses)
                    << "layer " << layer << " tile " << tile;
            }
            full.cache->flush();
            one.cache->flush();
        }
        EXPECT_EQ(one.cache->stats().evictions,
                  full.cache->stats().evictions);
        EXPECT_EQ(one.cache->stats().writebacks,
                  full.cache->stats().writebacks);
        const TrafficCounters &a = one.cache->functionalDramTraffic();
        const TrafficCounters &b = full.cache->functionalDramTraffic();
        for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
            EXPECT_EQ(a.readLines[c], b.readLines[c]);
            EXPECT_EQ(a.writeLines[c], b.writeLines[c]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PerSetPolicies, LockstepDifferential,
    ::testing::Combine(::testing::Values(ReplacementPolicy::Lru,
                                         ReplacementPolicy::Fifo,
                                         ReplacementPolicy::Srrip),
                       ::testing::Values(4u, 16u)),
    [](const auto &info) {
        return std::string(replacementPolicyName(std::get<0>(info.param))) +
               "_" + std::to_string(std::get<1>(info.param)) + "way";
    });

TEST(Lockstep, RuleRefusesSharedVictimsAndMisfitGeometry)
{
    // Table III's cache (512 sets) under Fig. 11's dense rows: 256
    // features are 16 lines, and 96-feature slices start every 6.
    constexpr Addr kBase = 0x4000'0000;
    constexpr std::uint64_t kRow = 16 * kCachelineBytes;
    constexpr std::uint64_t kSlice = 6 * kCachelineBytes;
    for (const ReplacementPolicy policy :
         {ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
          ReplacementPolicy::Srrip}) {
        EXPECT_TRUE(PolicyHarness(policy, 16, 512 * 1024)
                        .cache->lockstep(kBase, kRow, kSlice))
            << replacementPolicyName(policy);
    }
    // Random draws every set's victims from one stream.
    EXPECT_FALSE(PolicyHarness(ReplacementPolicy::Random, 16, 512 * 1024)
                     .cache->lockstep(kBase, kRow, kSlice));
    const PolicyHarness lru(ReplacementPolicy::Lru, 16, 512 * 1024);
    // 100 features are 7 lines, which do not divide 512 sets...
    EXPECT_FALSE(lru.cache->lockstep(kBase, 7 * kCachelineBytes, kSlice));
    // ...nor do 1024-line rows...
    EXPECT_FALSE(
        lru.cache->lockstep(kBase, 1024 * kCachelineBytes, kSlice));
    // ...rows must start on a multiple of their size...
    EXPECT_FALSE(lru.cache->lockstep(kBase + kSlice, kRow, kSlice));
    // ...and 24-feature slices start inside a line.
    EXPECT_FALSE(lru.cache->lockstep(kBase, kRow, 24 * 4));
}

} // namespace
} // namespace sgcn
