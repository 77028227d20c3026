/**
 * @file
 * Unit tests for the memory hierarchy: cache geometry, LRU, MSHR
 * coalescing, pinning, and the HBM timing model's bandwidth,
 * row-buffer, and scheduling behaviour.
 */

#include <gtest/gtest.h>

#include <functional>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/rng.hh"

namespace sgcn
{
namespace
{

/** One functional access of @p request's line; true on a hit. */
bool
touch(Cache &cache, const MemRequest &request)
{
    return cache.accessRunFunctional(request.lineAddr, 1, request.op,
                                     request.cls) == 1;
}

struct MemFixture : ::testing::Test
{
    EventQueue events;
    DramConfig dram_config = DramConfig::hbm2();
    CacheConfig cache_config;

    MemFixture()
    {
        cache_config.sizeBytes = 16 * 1024; // small for eviction tests
        cache_config.ways = 4;
    }
};

TEST_F(MemFixture, CacheGeometry)
{
    Dram dram(dram_config, events);
    Cache cache(cache_config, dram, events);
    EXPECT_EQ(cache.config().numSets(), 16u * 1024 / (64 * 4));
}

TEST_F(MemFixture, FunctionalHitAfterMiss)
{
    Dram dram(dram_config, events);
    Cache cache(cache_config, dram, events);
    MemRequest req{0x1000, MemOp::Read, TrafficClass::FeatureIn};
    EXPECT_FALSE(touch(cache, req));
    EXPECT_TRUE(touch(cache, req));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(MemFixture, FunctionalMissCountsDramRead)
{
    Dram dram(dram_config, events);
    Cache cache(cache_config, dram, events);
    touch(cache,
        MemRequest{0x2000, MemOp::Read, TrafficClass::Topology});
    EXPECT_EQ(cache.functionalDramTraffic().readLines[static_cast<int>(
                  TrafficClass::Topology)],
              1u);
}

TEST_F(MemFixture, LruEvictionOrder)
{
    Dram dram(dram_config, events);
    Cache cache(cache_config, dram, events);
    const std::uint64_t sets = cache.config().numSets();
    const Addr stride = sets * kCachelineBytes; // same set

    // Fill all 4 ways of set 0, then touch way 0 to refresh it.
    for (Addr i = 0; i < 4; ++i) {
        touch(cache, MemRequest{i * stride, MemOp::Read,
                                TrafficClass::FeatureIn});
    }
    touch(cache,
        MemRequest{0, MemOp::Read, TrafficClass::FeatureIn});
    // A fifth line evicts the LRU line (tag 1), not tag 0.
    touch(cache, MemRequest{4 * stride, MemOp::Read,
                            TrafficClass::FeatureIn});
    EXPECT_TRUE(touch(cache,
        MemRequest{0, MemOp::Read, TrafficClass::FeatureIn}));
    EXPECT_FALSE(touch(cache,
        MemRequest{1 * stride, MemOp::Read, TrafficClass::FeatureIn}));
}

TEST_F(MemFixture, DirtyEvictionWritesBack)
{
    Dram dram(dram_config, events);
    Cache cache(cache_config, dram, events);
    const std::uint64_t sets = cache.config().numSets();
    const Addr stride = sets * kCachelineBytes;

    touch(cache,
        MemRequest{0, MemOp::Write, TrafficClass::FeatureIn});
    for (Addr i = 1; i <= 4; ++i) {
        touch(cache, MemRequest{i * stride, MemOp::Read,
                                TrafficClass::FeatureIn});
    }
    EXPECT_EQ(cache.stats().writebacks, 1u);
    EXPECT_GE(cache.functionalDramTraffic()
                  .writeLines[static_cast<int>(TrafficClass::FeatureOut)],
              1u);
}

TEST_F(MemFixture, FlushWritesDirtyLines)
{
    Dram dram(dram_config, events);
    Cache cache(cache_config, dram, events);
    touch(cache,
        MemRequest{0, MemOp::Write, TrafficClass::PartialSum});
    touch(cache,
        MemRequest{64, MemOp::Write, TrafficClass::PartialSum});
    cache.flush();
    EXPECT_EQ(cache.stats().writebacks, 2u);
    EXPECT_FALSE(touch(cache,
        MemRequest{0, MemOp::Read, TrafficClass::FeatureIn}));
}

TEST_F(MemFixture, PinnedLinesSurvive)
{
    Dram dram(dram_config, events);
    Cache cache(cache_config, dram, events);
    const std::uint64_t sets = cache.config().numSets();
    const Addr stride = sets * kCachelineBytes;

    ASSERT_TRUE(cache.pin(0, TrafficClass::FeatureIn));
    // Storm of conflicting lines.
    for (Addr i = 1; i <= 32; ++i) {
        touch(cache, MemRequest{i * stride, MemOp::Read,
                                TrafficClass::FeatureIn});
    }
    EXPECT_TRUE(touch(cache,
        MemRequest{0, MemOp::Read, TrafficClass::FeatureIn}));
    cache.unpinAll();
    for (Addr i = 1; i <= 32; ++i) {
        touch(cache, MemRequest{i * stride, MemOp::Read,
                                TrafficClass::FeatureIn});
    }
    EXPECT_FALSE(touch(cache,
        MemRequest{0, MemOp::Read, TrafficClass::FeatureIn}));
}

TEST_F(MemFixture, PinBudgetHalfTheWays)
{
    Dram dram(dram_config, events);
    Cache cache(cache_config, dram, events);
    const std::uint64_t sets = cache.config().numSets();
    const Addr stride = sets * kCachelineBytes;
    EXPECT_TRUE(cache.pin(0 * stride, TrafficClass::FeatureIn));
    EXPECT_TRUE(cache.pin(1 * stride, TrafficClass::FeatureIn));
    // 4 ways -> at most 2 pinned.
    EXPECT_FALSE(cache.pin(2 * stride, TrafficClass::FeatureIn));
}

TEST_F(MemFixture, TimingHitLatency)
{
    Dram dram(dram_config, events);
    Cache cache(cache_config, dram, events);
    touch(cache,
        MemRequest{0x40, MemOp::Read, TrafficClass::FeatureIn});

    Cycle done_at = 0;
    cache.access(MemRequest{0x40, MemOp::Read, TrafficClass::FeatureIn},
                 [&] { done_at = events.now(); });
    events.run();
    EXPECT_EQ(done_at, cache_config.hitLatency);
}

TEST_F(MemFixture, TimingMissSlowerThanHit)
{
    Dram dram(dram_config, events);
    Cache cache(cache_config, dram, events);
    Cycle done_at = 0;
    cache.access(MemRequest{0x80, MemOp::Read, TrafficClass::FeatureIn},
                 [&] { done_at = events.now(); });
    events.run();
    EXPECT_GT(done_at, cache_config.hitLatency);
    EXPECT_GE(done_at, dram_config.tRcd + dram_config.tCl);
}

TEST_F(MemFixture, MshrCoalescesSameLine)
{
    Dram dram(dram_config, events);
    Cache cache(cache_config, dram, events);
    int completions = 0;
    for (int i = 0; i < 4; ++i) {
        cache.access(
            MemRequest{0x100, MemOp::Read, TrafficClass::FeatureIn},
            [&] { ++completions; });
    }
    events.run();
    EXPECT_EQ(completions, 4);
    EXPECT_EQ(cache.stats().mshrCoalesced, 3u);
    // Only one DRAM fill happened.
    EXPECT_EQ(dram.traffic().readLines[static_cast<int>(
                  TrafficClass::FeatureIn)],
              1u);
}

TEST_F(MemFixture, MshrOverflowQueuesAndDrains)
{
    cache_config.mshrs = 2;
    Dram dram(dram_config, events);
    Cache cache(cache_config, dram, events);
    int completions = 0;
    for (Addr i = 0; i < 8; ++i) {
        cache.access(MemRequest{0x1000 + i * 64, MemOp::Read,
                                TrafficClass::FeatureIn},
                     [&] { ++completions; });
    }
    events.run();
    EXPECT_EQ(completions, 8);
}

TEST_F(MemFixture, FunctionalAndTimingAgreeOnHitRate)
{
    Rng rng(5);
    std::vector<Addr> trace;
    for (int i = 0; i < 2000; ++i)
        trace.push_back(rng.uniformInt(512) * kCachelineBytes);

    Dram dram_a(dram_config, events);
    Cache functional(cache_config, dram_a, events);
    for (Addr line : trace) {
        touch(functional,
            MemRequest{line, MemOp::Read, TrafficClass::FeatureIn});
    }

    EventQueue timing_events;
    Dram dram_b(dram_config, timing_events);
    Cache timing(cache_config, dram_b, timing_events);
    // Issue strictly serialized so the access order matches.
    std::size_t next = 0;
    std::function<void()> issue = [&] {
        if (next >= trace.size())
            return;
        timing.access(MemRequest{trace[next++], MemOp::Read,
                                 TrafficClass::FeatureIn},
                      [&] { issue(); });
    };
    issue();
    timing_events.run();

    EXPECT_EQ(functional.stats().hits, timing.stats().hits);
    EXPECT_EQ(functional.stats().misses, timing.stats().misses);
}

// ---------------------------------------------------------------------
// DRAM model
// ---------------------------------------------------------------------

TEST(DramConfigTest, Presets)
{
    EXPECT_DOUBLE_EQ(DramConfig::hbm2().peakBytesPerCycle(), 256.0);
    EXPECT_DOUBLE_EQ(DramConfig::hbm1().peakBytesPerCycle(), 128.0);
}

namespace
{

/** Drive @p total line reads with the given window; return cycles. */
Cycle
driveDram(Dram &dram, EventQueue &events, std::uint64_t total,
          unsigned window, const std::function<Addr(std::uint64_t)> &at)
{
    unsigned outstanding = 0;
    std::uint64_t issued = 0;
    std::function<void()> pump = [&] {
        while (outstanding < window && issued < total) {
            const Addr line = at(issued);
            ++issued;
            ++outstanding;
            dram.access(
                MemRequest{line, MemOp::Read, TrafficClass::FeatureIn},
                [&] {
                    --outstanding;
                    pump();
                });
        }
    };
    pump();
    return events.run();
}

} // namespace

TEST(DramTest, SequentialStreamNearPeak)
{
    EventQueue events;
    Dram dram(DramConfig::hbm2(), events);
    const std::uint64_t total = 20000;
    const Cycle cycles = driveDram(
        dram, events, total, 256,
        [](std::uint64_t i) { return i * kCachelineBytes; });
    const double lines_per_cycle =
        static_cast<double>(total) / static_cast<double>(cycles);
    // Peak is 4 lines/cycle; a sequential stream should get close.
    EXPECT_GT(lines_per_cycle, 3.0);
    // Row-buffer locality should be high.
    const double hit_rate =
        static_cast<double>(dram.rowHits()) /
        static_cast<double>(dram.rowHits() + dram.rowMisses());
    EXPECT_GT(hit_rate, 0.8);
}

TEST(DramTest, RandomSlowerThanSequential)
{
    EventQueue seq_events, rnd_events;
    Dram seq(DramConfig::hbm2(), seq_events);
    Dram rnd(DramConfig::hbm2(), rnd_events);
    const std::uint64_t total = 20000;
    const Cycle seq_cycles = driveDram(
        seq, seq_events, total, 256,
        [](std::uint64_t i) { return i * kCachelineBytes; });
    Rng rng(9);
    const Cycle rnd_cycles =
        driveDram(rnd, rnd_events, total, 256, [&rng](std::uint64_t) {
            return rng.uniformInt(1 << 20) * kCachelineBytes;
        });
    EXPECT_GT(rnd_cycles, seq_cycles * 2);
}

TEST(DramTest, Hbm1HalfBandwidth)
{
    EventQueue e1, e2;
    Dram hbm1(DramConfig::hbm1(), e1);
    Dram hbm2(DramConfig::hbm2(), e2);
    const std::uint64_t total = 20000;
    const Cycle c1 = driveDram(
        hbm1, e1, total, 256,
        [](std::uint64_t i) { return i * kCachelineBytes; });
    const Cycle c2 = driveDram(
        hbm2, e2, total, 256,
        [](std::uint64_t i) { return i * kCachelineBytes; });
    EXPECT_NEAR(static_cast<double>(c1) / static_cast<double>(c2), 2.0,
                0.3);
}

TEST(DramTest, FrFcfsBeatsFcfsOnRowPingPong)
{
    // The textbook FR-FCFS case: two rows of the *same bank*
    // interleaved. FCFS (window 1) thrashes the row buffer on every
    // access; FR-FCFS groups same-row requests from its window.
    const DramConfig base = DramConfig::hbm2();
    // Row A: channel-0 stripes 0..3; row B: stripes 64..67 (same
    // bank, a different row under the RoBaCh mapping).
    auto trace_at = [&base](std::uint64_t i) -> Addr {
        const std::uint64_t pair = i / 2;
        const bool row_b = (i % 2) != 0;
        const std::uint64_t k = (pair / 4) % 4;      // stripe in row
        const std::uint64_t line_in_stripe = pair % 4;
        const std::uint64_t stripe = (row_b ? 64 : 0) + k;
        return (stripe * base.channels) * base.interleaveBytes +
               line_in_stripe * kCachelineBytes;
    };

    DramConfig fcfs_config = base;
    fcfs_config.schedWindow = 1;

    EventQueue e1, e2;
    Dram frfcfs(base, e1);
    Dram fcfs(fcfs_config, e2);
    const std::uint64_t total = 4000;
    const Cycle c_fr = driveDram(frfcfs, e1, total, 64, trace_at);
    const Cycle c_fc = driveDram(fcfs, e2, total, 64, trace_at);
    EXPECT_LT(c_fr, c_fc);
    EXPECT_GT(frfcfs.rowHits(), fcfs.rowHits());
}

TEST(DramTest, TrafficCountersPerClass)
{
    EventQueue events;
    Dram dram(DramConfig::hbm2(), events);
    dram.access(MemRequest{0, MemOp::Read, TrafficClass::Topology},
                nullptr);
    dram.access(MemRequest{64, MemOp::Write, TrafficClass::FeatureOut},
                nullptr);
    events.run();
    EXPECT_EQ(dram.traffic().classLines(TrafficClass::Topology), 1u);
    EXPECT_EQ(dram.traffic().classLines(TrafficClass::FeatureOut), 1u);
    EXPECT_EQ(dram.traffic().totalLines(), 2u);
}

TEST(DramTest, UtilizationAccounting)
{
    EventQueue events;
    Dram dram(DramConfig::hbm2(), events);
    const std::uint64_t total = 4000;
    const Cycle cycles = driveDram(
        dram, events, total, 256,
        [](std::uint64_t i) { return i * kCachelineBytes; });
    const double util = dram.bandwidthUtilization(cycles);
    EXPECT_GT(util, 0.5);
    EXPECT_LE(util, 1.0);
}

} // namespace
} // namespace sgcn
