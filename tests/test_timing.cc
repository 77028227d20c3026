/**
 * @file
 * Dedicated timing-mode tests: DRAM scheduling details (tFAW,
 * address decode, bank behaviour), cache pending-queue draining
 * under tiny MSHR budgets, and event-driven layer-engine behaviour
 * across all three dataflow shapes.
 */

#include <gtest/gtest.h>

#include <functional>

#include "accel/layer_engine.hh"
#include "accel/personalities.hh"
#include "accel/runner.hh"
#include "mem/dram.hh"
#include "sim/rng.hh"

namespace sgcn
{
namespace
{

// ---------------------------------------------------------------------
// DRAM scheduling details
// ---------------------------------------------------------------------

Cycle
drive(Dram &dram, EventQueue &events, std::uint64_t total,
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

TEST(DramTiming, FawBoundsRandomActivateRate)
{
    // Random single-channel traffic cannot activate faster than
    // 4 per tFAW window.
    DramConfig config = DramConfig::hbm2();
    config.channels = 1;
    EventQueue events;
    Dram dram(config, events);
    Rng rng(3);
    const std::uint64_t total = 8000;
    const Cycle cycles = drive(dram, events, total, 64,
                               [&rng](std::uint64_t) {
                                   return rng.uniformInt(1 << 20) *
                                          kCachelineBytes;
                               });
    const double activates_per_cycle =
        static_cast<double>(dram.rowMisses()) /
        static_cast<double>(cycles);
    EXPECT_LE(activates_per_cycle, 4.0 / config.tFaw * 1.05);
}

TEST(DramTiming, SingleBankStreamSerializesOnRowCycle)
{
    // Back-to-back rows of one bank: each activate waits tRP + tRCD.
    DramConfig config = DramConfig::hbm2();
    config.channels = 1;
    EventQueue events;
    Dram dram(config, events);
    // One line from each of 64 distinct rows of bank 0: channel-local
    // row r starts at r * rowBytes * banks... walk rows via stride.
    const Addr row_stride =
        static_cast<Addr>(config.rowBytes) * config.banksPerChannel;
    const Cycle cycles = drive(dram, events, 64, 4,
                               [&](std::uint64_t i) {
                                   return static_cast<Addr>(i) *
                                          row_stride;
                               });
    EXPECT_GE(cycles, 64 * (config.tRp + config.tRcd) * 9 / 10);
}

TEST(DramTiming, ChannelsSpreadUniformInterleave)
{
    // Consecutive 256B stripes rotate channels; with 8 channels a
    // 16-stripe stream touches each channel twice. Verified through
    // bandwidth: a one-channel-only stream is ~8x slower.
    DramConfig config = DramConfig::hbm2();
    EventQueue all_events, one_events;
    Dram all(config, all_events);
    Dram one(config, one_events);
    const std::uint64_t total = 8000;
    const Cycle all_cycles =
        drive(all, all_events, total, 128, [](std::uint64_t i) {
            return i * kCachelineBytes;
        });
    // Stay within channel 0: stripe index multiple of 8.
    const Cycle one_cycles =
        drive(one, one_events, total, 128, [&](std::uint64_t i) {
            const std::uint64_t stripe = (i / 4) * config.channels;
            return stripe * config.interleaveBytes +
                   (i % 4) * kCachelineBytes;
        });
    EXPECT_GT(one_cycles, all_cycles * 5);
}

/** Line @p col of @p row in @p bank of @p channel: the inverse of
 *  the DRAM's channel / bank / row decode. */
Addr
lineAt(const DramConfig &config, unsigned channel, unsigned bank,
       std::uint64_t row, unsigned col)
{
    const std::uint64_t local =
        (row * config.banksPerChannel + bank) * config.rowBytes +
        col * kCachelineBytes;
    const std::uint64_t stripe =
        (local / config.interleaveBytes) * config.channels + channel;
    return stripe * config.interleaveBytes +
           local % config.interleaveBytes;
}

struct DramPin
{
    Cycle cycles;
    std::uint64_t rowHits;
    std::uint64_t rowMisses;
    Cycle busBusyCycles;
    std::uint64_t transientRetries;
    std::uint64_t events;
};

/** 6,000 lines with 512 in flight, in 64-line segments rotating over
 *  a sequential run, random lines, and a row ping-pong over banks 0
 *  and 1 of channel 0. 512 in flight keeps channel queues far deeper
 *  than schedWindow, so FR-FCFS picks from mid-queue. */
DramPin
runMixedTrace(DramConfig config, double retry_prob)
{
    config.transientRetryProb = retry_prob;
    EventQueue events;
    Dram dram(config, events);
    Rng rng(11);
    Addr run_base = 0;
    std::uint64_t pingpong = 0;
    const unsigned row_lines = config.rowBytes / kCachelineBytes;
    const Cycle cycles =
        drive(dram, events, 6000, 512, [&](std::uint64_t i) -> Addr {
            const std::uint64_t offset = i % 64;
            switch ((i / 64) % 3) {
            case 0:
                if (offset == 0)
                    run_base = rng.uniformInt(1 << 16) * config.rowBytes;
                return run_base + offset * kCachelineBytes;
            case 1:
                return rng.uniformInt(1 << 22) * kCachelineBytes;
            default: {
                const std::uint64_t k = pingpong++;
                return lineAt(config, 0, static_cast<unsigned>(k & 1),
                              (k >> 1) & 1,
                              static_cast<unsigned>((k >> 2) %
                                                    row_lines));
            }
            }
        });
    return DramPin{cycles,
                   dram.rowHits(),
                   dram.rowMisses(),
                   dram.busBusyCycles(),
                   dram.transientRetries(),
                   events.executed()};
}

TEST(DramTiming, MixedTraceIsPinnedExactly)
{
    // Exact scheduler outcomes, retry push-back included: any change
    // to pick order, bank timing, retry re-queueing or event order
    // moves at least one of these.
    struct Case
    {
        const char *name;
        DramConfig config;
        double retryProb;
        DramPin want;
    };
    const Case cases[] = {
        {"HBM2", DramConfig::hbm2(), 0.0,
         {5523, 3955, 2045, 12000, 0, 15011}},
        {"HBM2 retry 0.2", DramConfig::hbm2(), 0.2,
         {6971, 5521, 1931, 14904, 1452, 17437}},
        {"HBM1", DramConfig::hbm1(), 0.0,
         {9980, 4002, 1998, 24000, 0, 15405}},
        {"HBM1 retry 0.2", DramConfig::hbm1(), 0.2,
         {12372, 5574, 1875, 29796, 1449, 18202}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const DramPin got = runMixedTrace(c.config, c.retryProb);
        EXPECT_EQ(got.cycles, c.want.cycles);
        EXPECT_EQ(got.rowHits, c.want.rowHits);
        EXPECT_EQ(got.rowMisses, c.want.rowMisses);
        EXPECT_EQ(got.busBusyCycles, c.want.busBusyCycles);
        EXPECT_EQ(got.transientRetries, c.want.transientRetries);
        EXPECT_EQ(got.events, c.want.events);
    }
}

// ---------------------------------------------------------------------
// Timing layer engine across dataflows
// ---------------------------------------------------------------------

struct TimingFixture : ::testing::Test
{
    Dataset cora = instantiateDataset(datasetByAbbrev("CR"), 0.08);
    NetworkSpec net;
    RunOptions timing;
    RunOptions fast;

    TimingFixture()
    {
        timing.mode = ExecutionMode::Timing;
        timing.sampledIntermediateLayers = 2;
        fast = timing;
        fast.mode = ExecutionMode::Fast;
    }
};

TEST_F(TimingFixture, AllPersonalitiesCompleteInTimingMode)
{
    for (const auto &config : allPersonalities()) {
        const RunResult run = runNetwork(config, cora, net, timing);
        EXPECT_GT(run.total.cycles, 0u) << config.name;
        EXPECT_GT(run.total.traffic.totalLines(), 0u) << config.name;
        EXPECT_GT(run.total.bwUtil, 0.0) << config.name;
        EXPECT_LE(run.total.bwUtil, 1.0) << config.name;
    }
}

TEST_F(TimingFixture, TimingNeverBeatsRooflineByMuch)
{
    // The fast mode is a lower-bound roofline; event timing should
    // be slower (latency, bank conflicts) but within a small factor
    // when parallelism suffices.
    for (const auto &config :
         {makeSgcn(), makeGcnax(), makeHygcn()}) {
        const Cycle t =
            runNetwork(config, cora, net, timing).total.cycles;
        const Cycle f =
            runNetwork(config, cora, net, fast).total.cycles;
        EXPECT_GE(static_cast<double>(t), 0.9 * f) << config.name;
        EXPECT_LE(static_cast<double>(t), 6.0 * f) << config.name;
    }
}

TEST_F(TimingFixture, ColumnProductTimingMatchesItsFastTraffic)
{
    const auto t =
        runNetwork(makeAwbGcn(), cora, net, timing).total.traffic;
    const auto f =
        runNetwork(makeAwbGcn(), cora, net, fast).total.traffic;
    const double ratio = static_cast<double>(t.totalLines()) /
                         static_cast<double>(f.totalLines());
    EXPECT_NEAR(ratio, 1.0, 0.2);
}

TEST_F(TimingFixture, CombFirstTimingMatchesItsFastTraffic)
{
    const auto t =
        runNetwork(makeEngn(), cora, net, timing).total.traffic;
    const auto f =
        runNetwork(makeEngn(), cora, net, fast).total.traffic;
    const double ratio = static_cast<double>(t.totalLines()) /
                         static_cast<double>(f.totalLines());
    EXPECT_NEAR(ratio, 1.0, 0.2);
}

TEST_F(TimingFixture, WiderDramHelpsTiming)
{
    AccelConfig hbm1 = makeSgcn();
    hbm1.dram = DramConfig::hbm1();
    AccelConfig hbm2 = makeSgcn();
    const Cycle slow =
        runNetwork(hbm1, cora, net, timing).total.cycles;
    const Cycle quick =
        runNetwork(hbm2, cora, net, timing).total.cycles;
    EXPECT_LT(quick, slow);
}

TEST_F(TimingFixture, DeterministicAcrossRuns)
{
    const Cycle a = runNetwork(makeSgcn(), cora, net, timing)
                        .total.cycles;
    const Cycle b = runNetwork(makeSgcn(), cora, net, timing)
                        .total.cycles;
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------
// Cache corner cases under timing
// ---------------------------------------------------------------------

TEST(CacheTiming, TinyMshrBudgetStillDrains)
{
    EventQueue events;
    Dram dram(DramConfig::hbm2(), events);
    CacheConfig config;
    config.sizeBytes = 8 * 1024;
    config.ways = 2;
    config.mshrs = 1;
    Cache cache(config, dram, events);
    int done = 0;
    for (Addr i = 0; i < 64; ++i) {
        cache.access(MemRequest{i * 4096, MemOp::Read,
                                TrafficClass::FeatureIn},
                     [&] { ++done; });
    }
    events.run();
    EXPECT_EQ(done, 64);
    EXPECT_EQ(cache.outstandingMisses(), 0u);
}

TEST(CacheTiming, WriteThenReadSameLineCoalesces)
{
    EventQueue events;
    Dram dram(DramConfig::hbm2(), events);
    CacheConfig config;
    Cache cache(config, dram, events);
    int done = 0;
    cache.access(MemRequest{0x40, MemOp::Write, TrafficClass::FeatureIn},
                 [&] { ++done; });
    cache.access(MemRequest{0x40, MemOp::Read, TrafficClass::FeatureIn},
                 [&] { ++done; });
    events.run();
    EXPECT_EQ(done, 2);
    // One fill, one coalesced target.
    EXPECT_EQ(cache.stats().mshrCoalesced, 1u);
    EXPECT_EQ(dram.traffic().totalLines(), 1u);
}

} // namespace
} // namespace sgcn
