/**
 * @file
 * Unit tests for the simulation foundation: address arithmetic,
 * deterministic RNG, statistics, the event queue, CLI parsing, and
 * table rendering.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <type_traits>

#include "mem/mem_request.hh"
#include "sim/cli.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/small_function.hh"
#include "sim/stats.hh"
#include "sim/table.hh"
#include "sim/types.hh"

namespace sgcn
{
namespace
{

TEST(Types, AlignHelpers)
{
    EXPECT_EQ(alignDown(0, 64), 0u);
    EXPECT_EQ(alignDown(63, 64), 0u);
    EXPECT_EQ(alignDown(64, 64), 64u);
    EXPECT_EQ(alignUp(0, 64), 0u);
    EXPECT_EQ(alignUp(1, 64), 64u);
    EXPECT_EQ(alignUp(64, 64), 64u);
    EXPECT_EQ(alignUp(65, 64), 128u);
    EXPECT_TRUE(isAligned(128, 64));
    EXPECT_FALSE(isAligned(130, 64));
}

TEST(Types, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
}

TEST(Types, LinesTouchedAligned)
{
    EXPECT_EQ(linesTouched(0, 0), 0u);
    EXPECT_EQ(linesTouched(0, 1), 1u);
    EXPECT_EQ(linesTouched(0, 64), 1u);
    EXPECT_EQ(linesTouched(0, 65), 2u);
    EXPECT_EQ(linesTouched(0, 128), 2u);
}

TEST(Types, LinesTouchedMisaligned)
{
    // A misaligned range pays for the straddled line — the overhead
    // BEICSR's in-place alignment avoids (SV-A).
    EXPECT_EQ(linesTouched(60, 8), 2u);
    EXPECT_EQ(linesTouched(63, 1), 1u);
    EXPECT_EQ(linesTouched(63, 2), 2u);
    EXPECT_EQ(linesTouched(32, 64), 2u);
}

TEST(Types, PowerOfTwoHelpers)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(96));
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(64), 6u);
    EXPECT_EQ(log2Floor(65), 6u);
}

TEST(Types, TrafficClassNames)
{
    EXPECT_STREQ(trafficClassName(TrafficClass::Topology), "topology");
    EXPECT_STREQ(trafficClassName(TrafficClass::FeatureIn),
                 "feature_in");
    EXPECT_STREQ(trafficClassName(TrafficClass::PartialSum),
                 "partial_sum");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversAll)
{
    Rng rng(3);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.uniformInt(8)];
    for (int count : seen)
        EXPECT_GT(count, 800);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(11);
    int hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    double sum = 0.0, sum_sq = 0.0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i) {
        const double x = rng.normal();
        sum += x;
        sum_sq += x * x;
    }
    EXPECT_NEAR(sum / trials, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / trials, 1.0, 0.03);
}

TEST(Rng, GeometricMean)
{
    Rng rng(17);
    double sum = 0.0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        sum += static_cast<double>(rng.geometric(32.0));
    EXPECT_NEAR(sum / trials, 32.0, 1.0);
}

TEST(Stats, StatSetBasics)
{
    StatSet stats;
    stats["a"] = 3.0;
    stats["b"] += 2.0;
    EXPECT_DOUBLE_EQ(stats.entries().at("a"), 3.0);
    EXPECT_DOUBLE_EQ(stats.entries().at("b"), 2.0);
    EXPECT_EQ(stats.entries().count("missing"), 0u);
}

TEST(Stats, Geomean)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-9);
}

TEST(EventQueue, OrderedExecution)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(10, [&] { order.push_back(2); });
    queue.schedule(5, [&] { order.push_back(1); });
    queue.schedule(20, [&] { order.push_back(3); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(queue.now(), 20u);
}

TEST(EventQueue, SameCycleFifo)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        queue.schedule(7, [&order, i] { order.push_back(i); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue queue;
    int fired = 0;
    queue.schedule(1, [&] {
        ++fired;
        queue.scheduleAfter(4, [&] { ++fired; });
    });
    queue.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(queue.now(), 5u);
}

TEST(EventQueue, RunLimit)
{
    EventQueue queue;
    int fired = 0;
    queue.schedule(5, [&] { ++fired; });
    queue.schedule(15, [&] { ++fired; });
    queue.run(10);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(queue.empty());
    queue.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ExecutedCount)
{
    EventQueue queue;
    for (int i = 0; i < 3; ++i)
        queue.schedule(i, [] {});
    queue.run();
    EXPECT_EQ(queue.executed(), 3u);
}

TEST(EventQueue, SameCycleFifoAcrossHorizons)
{
    // Interleave near (wheel) and far (heap) events landing on the
    // same cycles: execution must follow global schedule order per
    // cycle regardless of which structure held the event.
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(1000, [&] { order.push_back(0); }); // far
    queue.schedule(1000, [&] { order.push_back(1); }); // far
    queue.schedule(800, [&] {
        // From cycle 800, cycle 1000 is inside the wheel horizon.
        queue.schedule(1000, [&] { order.push_back(2); }); // near
        queue.schedule(999, [&] { order.push_back(-1); });
    });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));
    EXPECT_EQ(queue.now(), 1000u);
    EXPECT_EQ(queue.executed(), 5u);
}

TEST(EventQueue, SameCycleFifoUnderNestedScheduling)
{
    // Events scheduled for the current cycle from inside a callback
    // run this cycle, after everything already queued for it.
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(5, [&] {
        order.push_back(0);
        queue.schedule(5, [&] { order.push_back(2); });
    });
    queue.schedule(5, [&] { order.push_back(1); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(queue.now(), 5u);
}

TEST(EventQueue, StepAndPendingSemantics)
{
    EventQueue queue;
    EXPECT_FALSE(queue.step());
    EXPECT_EQ(queue.nextTime(), std::numeric_limits<Cycle>::max());
    int fired = 0;
    queue.schedule(2, [&] { ++fired; });
    queue.schedule(2, [&] { ++fired; });
    queue.schedule(700, [&] { ++fired; }); // beyond the wheel horizon
    EXPECT_EQ(queue.pending(), 3u);
    EXPECT_EQ(queue.nextTime(), 2u);
    EXPECT_TRUE(queue.step());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(queue.pending(), 2u);
    EXPECT_EQ(queue.now(), 2u);
    EXPECT_TRUE(queue.step());
    EXPECT_EQ(queue.nextTime(), 700u);
    EXPECT_TRUE(queue.step());
    EXPECT_FALSE(queue.step());
    EXPECT_EQ(fired, 3);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.executed(), 3u);
}

TEST(EventQueue, RunLimitBetweenFarEvents)
{
    EventQueue queue;
    int fired = 0;
    queue.schedule(100, [&] { ++fired; });
    queue.schedule(5000, [&] { ++fired; });
    // The limit itself has no event: time parks at the limit.
    EXPECT_EQ(queue.run(2000), 2000u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(queue.pending(), 1u);
    // Scheduling relative to the parked time still works.
    queue.scheduleAfter(1, [&] { ++fired; });
    queue.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(queue.now(), 5000u);
}

TEST(EventQueue, FullBudgetCapturesExecuteInOrder)
{
    // Captures that fill the whole inline budget keep their content
    // and their (time, seq) order.
    EventQueue queue;
    std::vector<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 8; ++i) {
        std::array<std::uint64_t, 5> payload{};
        payload[0] = i;
        payload[4] = 100 + i;
        static_assert(sizeof(&seen) + sizeof(payload) ==
                      kEventCaptureBytes);
        queue.schedule(4, [&seen, payload] {
            seen.push_back(payload[0]);
            seen.push_back(payload[4]);
        });
    }
    queue.run();
    ASSERT_EQ(seen.size(), 16u);
    for (std::uint64_t i = 0; i < 8; ++i) {
        EXPECT_EQ(seen[2 * i], i);
        EXPECT_EQ(seen[2 * i + 1], 100 + i);
    }
}

// The capture rule is the constructor's constraint: callbacks are
// trivially copyable, and an owning, oversized or over-aligned
// capture does not compile.
static_assert(std::is_trivially_copyable_v<EventQueue::Callback>);
static_assert(std::is_trivially_copyable_v<MemCallback>);

struct alignas(64) Wide
{
    std::uint64_t value;
};

template <typename F>
constexpr bool kSchedulable = std::is_constructible_v<EventQueue::Callback, F>;

static_assert(!kSchedulable<decltype([p = std::shared_ptr<int>()] {
    (void)p;
})>);
static_assert(!kSchedulable<decltype([f = std::function<void()>()] {
    f();
})>);
static_assert(!kSchedulable<decltype([a = std::array<std::uint64_t, 10>()] {
    (void)a;
})>);
static_assert(!kSchedulable<decltype([w = Wide()] { (void)w; })>);
// A DRAM completion: the device pointer plus the request's callback.
static_assert(
    kSchedulable<decltype([p = static_cast<int *>(nullptr),
                           done = MemCallback()]() mutable {
        ++*p;
        done();
    })>);

TEST(SmallFunction, EmptyAndInlineInvocation)
{
    SmallFunction<16> empty;
    EXPECT_FALSE(static_cast<bool>(empty));

    int hits = 0;
    SmallFunction<16> small([&hits] { ++hits; });
    EXPECT_TRUE(static_cast<bool>(small));
    small();
    EXPECT_EQ(hits, 1);

    small = nullptr;
    EXPECT_FALSE(static_cast<bool>(small));
}

TEST(SmallFunction, CopiesAreIndependentValues)
{
    // A copy duplicates the capture's bytes and owns nothing: each
    // copy advances its own state, and clearing one leaves the other
    // intact.
    std::vector<int> seen;
    SmallFunction<16> a([&seen, n = 0]() mutable { seen.push_back(++n); });
    a();
    SmallFunction<16> b(a);
    a();
    b();
    EXPECT_EQ(seen, (std::vector<int>{1, 2, 2}));

    a = nullptr;
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    a = b;
    a();
    EXPECT_EQ(seen, (std::vector<int>{1, 2, 2, 3, 4}));
}

TEST(Cli, FlagsAndValues)
{
    // A bare boolean flag must be last or use --flag=1: "--flag pos"
    // would consume "pos" as the flag's value.
    const char *argv[] = {"prog", "--alpha", "3", "--beta=x", "pos",
                          "--flag"};
    Cli cli(6, const_cast<char **>(argv));
    EXPECT_EQ(cli.getString("alpha", ""), "3");
    EXPECT_EQ(cli.getString("beta", ""), "x");
    EXPECT_FALSE(cli.getDouble("beta", 0.0).ok());
    EXPECT_TRUE(cli.getBool("flag", false).value());
    EXPECT_FALSE(cli.getBool("absent", false).value());
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "pos");
}

TEST(Cli, Defaults)
{
    const char *argv[] = {"prog"};
    Cli cli(1, const_cast<char **>(argv));
    EXPECT_TRUE(cli.getBool("b", true).value());
    EXPECT_DOUBLE_EQ(cli.getDouble("d", 1.5).value(), 1.5);
}

TEST(Table, RendersAligned)
{
    Table table("demo");
    table.header({"a", "bee"});
    table.row({"xx", "y"});
    const std::string text = table.render();
    EXPECT_NE(text.find("demo"), std::string::npos);
    EXPECT_NE(text.find("bee"), std::string::npos);
    EXPECT_NE(text.find("xx"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::ratio(1.5), "1.50x");
    EXPECT_EQ(Table::percent(0.123), "12.3%");
}

} // namespace
} // namespace sgcn
