/**
 * @file
 * The parallel sweep path: runAll with jobs > 1 must be bit-identical
 * to the serial path in identical order, concurrent runNetwork calls
 * must not race (this binary carries the "thread" ctest label and is
 * the target of the ThreadSanitizer CI job), and the thread pool
 * itself must honour its ordering/exception contract.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "accel/personalities.hh"
#include "accel/runner.hh"
#include "fixtures.hh"
#include "sim/thread_pool.hh"

namespace sgcn
{
namespace
{

using testfx::expectRunIdentical;

struct ParallelRunner : ::testing::Test
{
    Dataset cora = testfx::cora();
    NetworkSpec net;
    RunOptions opts;

    void
    SetUp() override
    {
        opts.sampledIntermediateLayers = 2;
    }
};

TEST_F(ParallelRunner, JobsFanOutIsBitIdenticalAndOrdered)
{
    const auto configs = allPersonalities();
    RunOptions serial = opts;
    serial.jobs = 1;
    RunOptions fanned = opts;
    fanned.jobs = 8;

    const auto a = runAll(configs, cora, net, serial);
    const auto b = runAll(configs, cora, net, fanned);

    ASSERT_EQ(a.size(), configs.size());
    ASSERT_EQ(b.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(b[i].accelName, configs[i].name);
        expectRunIdentical(a[i], b[i]);
    }
}

TEST_F(ParallelRunner, JobsZeroMeansHardwareConcurrency)
{
    const std::vector<AccelConfig> configs{makeGcnax(), makeSgcn()};
    RunOptions all_threads = opts;
    all_threads.jobs = 0;
    const auto serial = runAll(configs, cora, net, opts);
    const auto fanned = runAll(configs, cora, net, all_threads);
    ASSERT_EQ(fanned.size(), 2u);
    expectRunIdentical(serial[0], fanned[0]);
    expectRunIdentical(serial[1], fanned[1]);
}

TEST_F(ParallelRunner, ConcurrentRunNetworkCallsDontRace)
{
    // N simultaneous simulations of the same workload must neither
    // race (TSan job) nor perturb each other's results.
    const AccelConfig config = makeSgcn();
    const RunResult expected = runNetwork(config, cora, net, opts);

    constexpr std::size_t kThreads = 8;
    std::vector<RunResult> results(kThreads);
    parallelFor(kThreads, kThreads, [&](std::size_t i) {
        results[i] = runNetwork(config, cora, net, opts);
    });
    for (const auto &run : results)
        expectRunIdentical(expected, run);
}

TEST_F(ParallelRunner, MixedPersonalitiesUnderConcurrency)
{
    // Different dataflows concurrently: every dispatch case
    // (agg-first, comb-first input layers, column product) at once.
    const auto configs = allPersonalities();
    const auto serial = runAll(configs, cora, net, opts);
    constexpr std::size_t kRepeat = 3;
    std::vector<std::vector<RunResult>> rounds(kRepeat);
    parallelFor(kRepeat, kRepeat, [&](std::size_t r) {
        RunOptions fanned = opts;
        fanned.jobs = 4;
        rounds[r] = runAll(configs, cora, net, fanned);
    });
    for (const auto &round : rounds) {
        ASSERT_EQ(round.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            expectRunIdentical(serial[i], round[i]);
    }
}

TEST(ThreadPool, ResolvesJobsKnob)
{
    EXPECT_EQ(ThreadPool::resolveJobs(1), 1u);
    EXPECT_EQ(ThreadPool::resolveJobs(7), 7u);
    EXPECT_EQ(ThreadPool::resolveJobs(0), ThreadPool::hardwareJobs());
    EXPECT_GE(ThreadPool::hardwareJobs(), 1u);
}

TEST(ThreadPool, SubmitReturnsResultsPerFuture)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; ++i)
            pool.submit([&ran] { ++ran; });
    }
    EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    parallelFor(8, kCount, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexFailure)
{
    const auto sweep = [](unsigned jobs) {
        parallelFor(jobs, 16, [](std::size_t i) {
            if (i == 3 || i == 11)
                throw std::runtime_error("boom " + std::to_string(i));
        });
    };
    for (unsigned jobs : {1u, 8u}) {
        try {
            sweep(jobs);
            FAIL() << "expected failure with jobs=" << jobs;
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "boom 3");
        }
    }
}

TEST(ThreadPool, OverlapsSleepingTasks)
{
    // The fan-out must actually overlap tasks: with four workers and
    // four 100 ms waits, at least two must be in flight at once
    // (true even on one hardware thread — sleeps overlap). Counting
    // concurrency instead of wall clock keeps this deterministic on
    // loaded CI runners.
    std::atomic<int> in_flight{0};
    std::atomic<int> max_in_flight{0};
    parallelFor(4, 4, [&](std::size_t) {
        const int now = ++in_flight;
        int seen = max_in_flight.load();
        while (seen < now &&
               !max_in_flight.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        --in_flight;
    });
    EXPECT_GE(max_in_flight.load(), 2);
}

} // namespace
} // namespace sgcn
