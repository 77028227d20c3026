/**
 * @file
 * Allocation bounds on the simulator's hot paths. A counting
 * operator new (this binary only) measures heap allocations per unit
 * of work once each path is warm, and a test fails when a path starts
 * allocating per plan, edge, hit, config, lookup or event again.
 * Each test prints its measured rate next to its bound.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "accel/personalities.hh"
#include "accel/runner.hh"
#include "accel/stream_artifacts.hh"
#include "graph/generators.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

} // namespace

// Count every heap allocation in this binary. The nothrow forms are
// replaced too: a sanitizer runtime supplies its own, which must not
// meet the free() below. (GCC pairs its built-in operator new model
// with that free() and warns; the replacement operators are matched.)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace sgcn
{
namespace
{

/** Heap allocations so far. */
std::uint64_t
allocations()
{
    return g_allocs.load(std::memory_order_relaxed);
}

/** Print a gate's allocations per item since @p start and check the
 *  rate against its bound. */
void
expectWithin(const char *gate, std::uint64_t start, double items,
             double bound)
{
    const double measured =
        static_cast<double>(allocations() - start) / items;
    std::printf("%-28s %.6g (bound %g)\n", gate, measured, bound);
    EXPECT_LE(measured, bound) << gate;
}

/** The synth:100k shape, built directly (no dataset scaffolding). */
const ClusteredGraphParams kGraph100k{
    .vertices = 100000,
    .avgDegree = 8.0,
    .localityFraction = 0.8,
    .localityDistance = 100.0,
    .hubFraction = 0.05,
    .hubSetFraction = 0.002,
    .seed = 7,
    .chunkedRng = true,
    .jobs = 0,
};

// Warm event scheduling reuses the timing wheel buckets' capacity and
// holds every capture inline (trivially copyable, at most
// kEventCaptureBytes): no allocation per event for any shape, a DRAM
// completion's included.
TEST(AllocBounds, EventSchedulingPerEvent)
{
    constexpr int kBatch = 4096;
    constexpr int kRounds = 8;
    EventQueue events;
    std::uint64_t sink = 0;
    const auto gate = [&](const char *name, auto &&schedule_one) {
        const auto batch = [&] {
            for (int i = 0; i < kBatch; ++i)
                schedule_one(events.now() + i % 64, i);
            events.run();
        };
        // Each batch advances time 63 cycles: warm until every bucket
        // of the 256-cycle timing wheel has held a batch.
        for (int r = 0; r < kRounds; ++r)
            batch();
        const std::uint64_t start = allocations();
        for (int r = 0; r < kRounds; ++r)
            batch();
        expectWithin(name, start, kBatch * kRounds, 0.01);
    };

    gate("event (empty capture)",
         [&](Cycle when, int) { events.schedule(when, [] {}); });
    // The simulator's dominant shape: a pointer plus two words.
    gate("event (small capture)", [&](Cycle when, int i) {
        events.schedule(when, [&sink, i, extra = std::uint64_t(i)] {
            sink += i + extra;
        });
    });
    // The largest shape, a DRAM completion: a pointer plus a
    // MemCallback.
    gate("event (memory completion)", [&](Cycle when, int i) {
        MemCallback done([&sink, i] { sink += i; });
        events.schedule(when, [&sink, done]() mutable {
            ++sink;
            done();
        });
    });
    EXPECT_GT(sink, 0u);
}

// Pooled burst joins, the open-addressing MSHR table with inline
// targets and capacity-retaining DRAM queues: the memory path's
// residue is timing-wheel buckets and DRAM queues growing past the
// deepest they have been (235 and 10 of the 245 allocations in 16
// rounds). The unordered_map MSHRs it replaced sat at about 9
// allocations per plan.
TEST(AllocBounds, MemoryPathPerPlan)
{
    constexpr int kPlans = 512;
    constexpr int kRounds = 16;
    EventQueue events;
    Dram dram(DramConfig::hbm2(), events);
    Cache cache(CacheConfig{}, dram, events);
    Rng rng(7);
    unsigned live = 0;
    const auto pump = [&] {
        for (int p = 0; p < kPlans; ++p) {
            AccessPlan plan;
            plan.addLines(rng.uniformInt(1 << 16) * kCachelineBytes,
                          1 + rng.uniformInt(8));
            ++live;
            cache.accessBurst(plan, MemOp::Read,
                              TrafficClass::FeatureIn,
                              MemCallback([&live] { --live; }));
        }
        events.run();
    };
    pump(); // warm caches, pools and queues

    const std::uint64_t start = allocations();
    for (int r = 0; r < kRounds; ++r)
        pump();
    expectWithin("memory path (per plan)", start, kPlans * kRounds, 0.5);
    EXPECT_EQ(live, 0u);
}

// The two-pass builder allocates the degree array, the scatter
// scratch, the packed output and per-chunk pool plumbing: all
// O(vertices + chunks), never O(edges).
TEST(AllocBounds, StreamingCsrBuildPerEdge)
{
    const std::uint64_t start = allocations();
    const CsrGraph graph = clusteredGraph(kGraph100k);
    expectWithin("CSR build (per edge)", start, graph.numEdges(), 0.01);
}

// A warm hit keys on the fingerprint computed at construction and
// copies a shared_ptr.
TEST(AllocBounds, WarmCanonicalGraphPerHit)
{
    constexpr int kHits = 1000;
    auto &artifacts = StreamArtifactCache::instance();
    const CsrGraph graph = clusteredGraph(kGraph100k);
    artifacts.canonicalGraph(graph);

    const std::uint64_t start = allocations();
    for (int i = 0; i < kHits; ++i)
        artifacts.canonicalGraph(graph);
    expectWithin("canonical graph (per hit)", start, kHits, 0.1);
}

// A warm config still builds its engines, caches and result vectors,
// but allocates nothing per cache access: one allocation per
// functional cache run would put it at about 165,000 per config.
TEST(AllocBounds, WarmSweepPerConfig)
{
    constexpr int kSweeps = 2;
    const Dataset cora = instantiateDataset(datasetByAbbrev("CR"), 1.0);
    const auto configs = allPersonalities();
    RunOptions opts;
    opts.mode = ExecutionMode::Fast;
    clearSweepArtifacts();
    runAll(configs, cora, NetworkSpec{}, opts); // populate the artifacts

    const std::uint64_t start = allocations();
    for (int s = 0; s < kSweeps; ++s)
        runAll(configs, cora, NetworkSpec{}, opts);
    expectWithin("warm sweep (per config)", start,
                 kSweeps * configs.size(), 50000.0);
}

// A warm lookup copies a shared_future and a shared_ptr under a stack
// key.
TEST(AllocBounds, WarmArtifactLookup)
{
    constexpr int kRounds = 1000;
    auto &artifacts = StreamArtifactCache::instance();
    const Dataset cora = instantiateDataset(datasetByAbbrev("CR"), 1.0);
    const std::uint32_t n = cora.graph.numVertices();
    const auto graph = artifacts.canonicalGraph(cora.graph);
    const auto lookups = [&] {
        const auto mask = artifacts.randomMask(n, 128, 0.9, 42);
        artifacts.preparedLayout(FormatKind::Dense, 128, 0, 0.1, 0, mask);
        artifacts.tiledView(graph, 512, 512);
        artifacts.degreeOrder(cora.graph);
    };
    lookups(); // populate the four artifact families

    const std::uint64_t start = allocations();
    for (int i = 0; i < kRounds; ++i)
        lookups();
    expectWithin("artifact lookup (per lookup)", start, 4 * kRounds, 0.1);
}

} // namespace
} // namespace sgcn
