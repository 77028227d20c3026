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
