/**
 * @file
 * Tests for the sweep-level stream-artifact cache
 * (accel/stream_artifacts.hh, the PR 6 tentpole): warm runs must be
 * bit-identical to cold runs for every personality, artifacts must
 * compute once under the runAll jobs>1 fan-out, keys must separate
 * every input that changes an artifact, and a random mask served
 * from its row-prefix stream must equal a fresh draw at every row
 * count. A dense layout reads only its mask's shape, so it is one
 * artifact per shape; other formats stay one per mask. Runs under
 * the TSan CI job (labelled `thread` in CMakeLists).
 */

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "accel/personalities.hh"
#include "accel/runner.hh"
#include "accel/stream_artifacts.hh"
#include "formats/dense.hh"
#include "graph/generators.hh"
#include "graph/preprocess_cache.hh"

namespace sgcn
{
namespace
{

CsrGraph
testGraph(std::uint64_t seed, VertexId vertices = 400)
{
    ClusteredGraphParams params;
    params.vertices = vertices;
    params.avgDegree = 6.0;
    params.seed = seed;
    return clusteredGraph(params);
}

/** Whether @p mask is FeatureMask::random(rows, cols, sparsity,
 *  Rng(seed)), element for element. */
::testing::AssertionResult
isFreshDraw(const FeatureMask &mask, std::uint32_t rows,
            std::uint32_t cols, double sparsity, std::uint64_t seed)
{
    Rng rng(seed);
    const FeatureMask fresh =
        FeatureMask::random(rows, cols, sparsity, rng);
    if (mask.rows() != rows || mask.cols() != cols) {
        return ::testing::AssertionFailure()
               << mask.rows() << "x" << mask.cols() << " mask, want "
               << rows << "x" << cols;
    }
    for (std::uint32_t r = 0; r < rows; ++r) {
        for (std::uint32_t c = 0; c < cols; ++c) {
            if (mask.test(r, c) != fresh.test(r, c)) {
                return ::testing::AssertionFailure()
                       << "element (" << r << ", " << c
                       << ") differs from a fresh " << rows << "x"
                       << cols << " draw of seed " << seed;
            }
        }
    }
    return ::testing::AssertionSuccess();
}

/** The totals that define bit-identity between two runs. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.total.cycles, b.total.cycles);
    EXPECT_EQ(a.total.macs, b.total.macs);
    EXPECT_EQ(a.total.traffic.totalLines(), b.total.traffic.totalLines());
    EXPECT_EQ(a.total.cacheAccesses, b.total.cacheAccesses);
    EXPECT_EQ(a.total.cacheHits, b.total.cacheHits);
}

TEST(StreamArtifacts, WarmRunsBitIdenticalPerPersonality)
{
    const Dataset dataset =
        instantiateDataset(datasetByAbbrev("CR"), 0.1);
    NetworkSpec net;
    net.layers = 4;
    RunOptions opts;
    opts.sampledIntermediateLayers = 1;

    for (const AccelConfig &config : allPersonalities()) {
        for (const ExecutionMode mode :
             {ExecutionMode::Fast, ExecutionMode::Timing}) {
            opts.mode = mode;
            clearSweepArtifacts();
            const RunResult cold =
                runNetwork(config, dataset, net, opts);
            EXPECT_GE(
                StreamArtifactCache::instance().stats().misses, 1u)
                << config.name;
            const RunResult warm =
                runNetwork(config, dataset, net, opts);
            EXPECT_GE(StreamArtifactCache::instance().stats().hits, 1u)
                << config.name;
            expectIdentical(cold, warm);
        }
    }
}

TEST(StreamArtifacts, SweepSharesArtifactsAcrossConfigs)
{
    const Dataset dataset =
        instantiateDataset(datasetByAbbrev("CR"), 0.1);
    NetworkSpec net;
    net.layers = 4;
    RunOptions opts;
    opts.sampledIntermediateLayers = 1;
    opts.mode = ExecutionMode::Fast;

    clearSweepArtifacts();
    const auto serial = runAll(allPersonalities(), dataset, net, opts);
    const ArtifactStats cold = StreamArtifactCache::instance().stats();
    // Six personalities ran; the artifact families must not have
    // computed six times over. The masks in particular are identical
    // across all personalities by construction, so hits dominate.
    EXPECT_GE(cold.hits, cold.misses);
    EXPECT_GT(StreamArtifactCache::instance().footprintBytes(), 0u);

    // A second sweep over resident artifacts recomputes nothing.
    const auto warm = runAll(allPersonalities(), dataset, net, opts);
    const ArtifactStats after = StreamArtifactCache::instance().stats();
    EXPECT_EQ(after.misses, cold.misses);
    ASSERT_EQ(serial.size(), warm.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], warm[i]);
}

TEST(StreamArtifacts, ComputeOnceUnderJobs)
{
    const Dataset dataset =
        instantiateDataset(datasetByAbbrev("CR"), 0.1);
    NetworkSpec net;
    net.layers = 4;
    RunOptions opts;
    opts.sampledIntermediateLayers = 1;
    opts.mode = ExecutionMode::Fast;

    clearSweepArtifacts();
    const auto serial = runAll(allPersonalities(), dataset, net, opts);
    const std::uint64_t serial_misses =
        StreamArtifactCache::instance().stats().misses;

    clearSweepArtifacts();
    opts.jobs = 4;
    const auto pooled = runAll(allPersonalities(), dataset, net, opts);
    // Concurrent configs block on one computation instead of
    // duplicating it (KeyedCache's shared_future discipline), so the
    // fan-out misses exactly as often as the serial sweep...
    EXPECT_EQ(StreamArtifactCache::instance().stats().misses,
              serial_misses);
    // ...and the results are the serial results, bit for bit.
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], pooled[i]);
}

TEST(StreamArtifacts, ConcurrentMaskLookupsComputeOnce)
{
    auto &artifacts = StreamArtifactCache::instance();
    clearSweepArtifacts();

    constexpr unsigned kThreads = 8;
    std::vector<StreamArtifactCache::MaskHandle> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            results[t] = artifacts.randomMask(2000, 128, 0.85, 99);
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(results[t].mask.get(), results[0].mask.get());
    EXPECT_EQ(artifacts.stats().misses, 1u);
    EXPECT_EQ(artifacts.stats().hits, kThreads - 1);
}

TEST(StreamArtifacts, MaskStreamRowCountsMatchFreshDraws)
{
    auto &artifacts = StreamArtifactCache::instance();
    // 602 columns leave a partial last word (9 full words + 26 bits).
    for (const std::uint32_t cols : {64u, 602u}) {
        clearSweepArtifacts();
        // Longer, shorter, longer, equal (a mask-cache hit), then one
        // row: the stream grows twice and copies prefixes twice.
        const std::uint32_t requests[] = {300, 100, 700, 700, 1};
        std::vector<StreamArtifactCache::MaskHandle> handles;
        for (const std::uint32_t rows : requests) {
            handles.push_back(artifacts.randomMask(rows, cols, 0.7, 21));
            EXPECT_TRUE(isFreshDraw(*handles.back(), rows, cols, 0.7, 21))
                << "after a request for " << rows << " rows";
        }
        EXPECT_EQ(handles[3].mask.get(), handles[2].mask.get());
        // The stream sits behind the mask cache's compute-once: its
        // copies and extensions are misses of their own keys, and
        // its counters are the mask cache's.
        EXPECT_EQ(artifacts.stats().misses, 4u);
        EXPECT_EQ(artifacts.stats().hits, 1u);
    }
}

TEST(StreamArtifacts, MaskStreamsNeverShareRows)
{
    auto &artifacts = StreamArtifactCache::instance();
    clearSweepArtifacts();

    // Each variant differs from the base stream in one of cols,
    // sparsity and seed, and asks for rows past the base stream's
    // (which a shared stream would extend) and within it (which a
    // shared stream would copy).
    struct Params
    {
        std::uint32_t cols;
        double sparsity;
        std::uint64_t seed;
    };
    const Params base{64, 0.7, 21};
    const Params variants[] = {
        {65, 0.7, 21}, {64, 0.71, 21}, {64, 0.7, 22}};
    const auto base_mask =
        artifacts.randomMask(300, base.cols, base.sparsity, base.seed);
    EXPECT_TRUE(
        isFreshDraw(*base_mask, 300, base.cols, base.sparsity, base.seed));
    for (const Params &p : variants) {
        for (const std::uint32_t rows : {500u, 100u}) {
            const auto mask =
                artifacts.randomMask(rows, p.cols, p.sparsity, p.seed);
            EXPECT_TRUE(
                isFreshDraw(*mask, rows, p.cols, p.sparsity, p.seed))
                << p.cols << " cols, sparsity " << p.sparsity
                << ", seed " << p.seed << ", " << rows << " rows";
            EXPECT_NE(mask.mask.get(), base_mask.mask.get());
        }
    }
    // The variants left the base stream where it was.
    EXPECT_TRUE(isFreshDraw(
        *artifacts.randomMask(600, base.cols, base.sparsity, base.seed),
        600, base.cols, base.sparsity, base.seed));
}

TEST(StreamArtifacts, ConcurrentMaskStreamRequestsMatchFreshDraws)
{
    auto &artifacts = StreamArtifactCache::instance();
    clearSweepArtifacts();

    // Eight row counts of one stream requested at once: whichever
    // order the threads reach the stream in, each grows it or copies
    // a prefix of it, and every result is its own fresh draw.
    constexpr unsigned kThreads = 8;
    std::vector<StreamArtifactCache::MaskHandle> results(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            results[t] = artifacts.randomMask(100 * (t + 1), 602, 0.85, 99);
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (unsigned t = 0; t < kThreads; ++t) {
        EXPECT_TRUE(isFreshDraw(*results[t], 100 * (t + 1), 602, 0.85, 99))
            << "thread " << t;
    }
    EXPECT_EQ(artifacts.stats().misses, kThreads);
}

TEST(StreamArtifacts, KeySeparation)
{
    auto &artifacts = StreamArtifactCache::instance();
    clearSweepArtifacts();

    // Masks: every parameter is part of the identity; equal
    // parameters share one instance.
    const auto base = artifacts.randomMask(100, 64, 0.9, 7);
    EXPECT_EQ(artifacts.randomMask(100, 64, 0.9, 7).mask.get(),
              base.mask.get());
    EXPECT_NE(artifacts.randomMask(101, 64, 0.9, 7).mask.get(),
              base.mask.get());
    EXPECT_NE(artifacts.randomMask(100, 65, 0.9, 7).mask.get(),
              base.mask.get());
    EXPECT_NE(artifacts.randomMask(100, 64, 0.91, 7).mask.get(),
              base.mask.get());
    EXPECT_NE(artifacts.randomMask(100, 64, 0.9, 8).mask.get(),
              base.mask.get());
    // Generator families never alias even at equal dimensions.
    EXPECT_NE(artifacts.fullMask(100, 64).mask.get(),
              base.mask.get());
    EXPECT_NE(artifacts.oneHotMask(100, 64, 7).mask.get(),
              base.mask.get());

    // Layouts: format, widths, density, base address, and the bound
    // mask all separate; equal inputs share.
    const auto layout = artifacts.preparedLayout(
        FormatKind::Beicsr, 64, 32, 0.1, 0, base);
    EXPECT_EQ(artifacts
                  .preparedLayout(FormatKind::Beicsr, 64, 32, 0.1, 0,
                                  base)
                  .get(),
              layout.get());
    EXPECT_NE(artifacts
                  .preparedLayout(FormatKind::Csr, 64, 32, 0.1, 0,
                                  base)
                  .get(),
              layout.get());
    EXPECT_NE(artifacts
                  .preparedLayout(FormatKind::Beicsr, 64, 16, 0.1, 0,
                                  base)
                  .get(),
              layout.get());
    EXPECT_NE(artifacts
                  .preparedLayout(FormatKind::Beicsr, 64, 32, 0.2, 0,
                                  base)
                  .get(),
              layout.get());
    EXPECT_NE(artifacts
                  .preparedLayout(FormatKind::Beicsr, 64, 32, 0.1,
                                  4096, base)
                  .get(),
              layout.get());
    const auto other_mask = artifacts.randomMask(100, 64, 0.9, 8);
    EXPECT_NE(artifacts
                  .preparedLayout(FormatKind::Beicsr, 64, 32, 0.1, 0,
                                  other_mask)
                  .get(),
              layout.get());

    // Views and degree orders: keyed by topology fingerprint (and
    // spans); distinct graphs and spans separate, identical content
    // shares even across distinct objects.
    const CsrGraph a = testGraph(1);
    const CsrGraph a_copy = testGraph(1);
    const CsrGraph b = testGraph(2);
    const auto ga = artifacts.canonicalGraph(a);
    EXPECT_EQ(artifacts.canonicalGraph(a_copy).get(), ga.get());
    const auto gb = artifacts.canonicalGraph(b);
    EXPECT_NE(ga.get(), gb.get());
    const auto view = artifacts.tiledView(ga, 128, 128);
    EXPECT_EQ(artifacts.tiledView(ga, 128, 128).get(), view.get());
    EXPECT_NE(artifacts.tiledView(ga, 128, 64).get(), view.get());
    EXPECT_NE(artifacts.tiledView(gb, 128, 128).get(), view.get());
    EXPECT_EQ(artifacts.degreeOrder(a).get(),
              artifacts.degreeOrder(a_copy).get());
    EXPECT_NE(artifacts.degreeOrder(a).get(),
              artifacts.degreeOrder(b).get());

    // SAGE fractions: per (topology, fanout, seed).
    const double fa = artifacts.sageEdgeFraction(a, 8);
    EXPECT_EQ(artifacts.sageEdgeFraction(a, 8), fa);
    EXPECT_NE(artifacts.sageEdgeFraction(a, 2), fa);

    // The sampling seed is part of the key: a seeded draw must not
    // be served the seed-0 analytic value (or another seed's draw)
    // from the cache. Equal seeds still share one entry.
    const double seeded = artifacts.sageEdgeFraction(a, 2, 7);
    EXPECT_EQ(artifacts.sageEdgeFraction(a, 2, 7), seeded);
    EXPECT_NE(artifacts.sageEdgeFraction(a, 2, 0), seeded);
    EXPECT_NE(artifacts.sageEdgeFraction(a, 2, 8), seeded);
    // A concrete with-replacement draw can only lose distinct
    // neighbours relative to the analytic bound.
    EXPECT_LT(seeded, artifacts.sageEdgeFraction(a, 2, 0));
    // Seed 0 stays the analytic expectation regardless of what the
    // seeded entries cached.
    EXPECT_EQ(artifacts.sageEdgeFraction(a, 2, 0),
              artifacts.sageEdgeFraction(a, 2));
}

/** Two access plans cover the same line runs. */
void
expectPlansEqual(const AccessPlan &a, const AccessPlan &b)
{
    ASSERT_EQ(a.numRuns, b.numRuns);
    for (unsigned r = 0; r < a.numRuns; ++r) {
        EXPECT_EQ(a.runs[r].addr, b.runs[r].addr);
        EXPECT_EQ(a.runs[r].lines, b.runs[r].lines);
    }
}

TEST(StreamArtifacts, DenseLayoutIsOnePerShape)
{
    auto &artifacts = StreamArtifactCache::instance();
    clearSweepArtifacts();
    constexpr std::uint32_t kRows = 300;
    constexpr std::uint32_t kWidth = 200;
    constexpr std::uint32_t kSlice = 96;
    constexpr double kDensity = 0.4;
    constexpr Addr kBase = 0x4000;

    // Two masks of one shape, drawn at different sparsities and
    // seeds, get one dense layout: it reads only the row count.
    const auto sparse = artifacts.randomMask(kRows, kWidth, 0.9, 21);
    const auto denser = artifacts.randomMask(kRows, kWidth, 0.3, 22);
    const auto shared = artifacts.preparedLayout(
        FormatKind::Dense, kWidth, kSlice, kDensity, kBase, sparse);
    EXPECT_EQ(artifacts
                  .preparedLayout(FormatKind::Dense, kWidth, kSlice,
                                  kDensity, kBase, denser)
                  .get(),
              shared.get());

    // It plans exactly what a dense layout prepared on either mask
    // plans: every slice-table entry, row read and row write.
    for (const auto *mask : {&sparse, &denser}) {
        DenseLayout direct(kWidth, kSlice);
        direct.setExpectedDensity(kDensity);
        direct.prepare(**mask, kBase);
        ASSERT_EQ(shared->numSlices(), direct.numSlices());
        const FeatureLayout::SlicePlan *got = shared->sliceTable();
        const FeatureLayout::SlicePlan *want = direct.sliceTable();
        for (std::size_t i = 0; i < kRows * direct.numSlices(); ++i) {
            EXPECT_EQ(got[i].addr, want[i].addr) << "entry " << i;
            EXPECT_EQ(got[i].values, want[i].values) << "entry " << i;
            EXPECT_EQ(got[i].lines, want[i].lines) << "entry " << i;
        }
        for (VertexId v = 0; v < kRows; ++v) {
            expectPlansEqual(shared->planRowRead(v),
                             direct.planRowRead(v));
            expectPlansEqual(shared->planRowWrite(v),
                             direct.planRowWrite(v));
        }
        EXPECT_EQ(shared->storageBytes(), direct.storageBytes());
        EXPECT_EQ(shared->totalRowReadLines(),
                  direct.totalRowReadLines());
        EXPECT_EQ(shared->staticSliceBytesEstimate(),
                  direct.staticSliceBytesEstimate());
    }

    // Another shape gets its own dense layout.
    EXPECT_NE(artifacts
                  .preparedLayout(FormatKind::Dense, kWidth, kSlice,
                                  kDensity, kBase,
                                  artifacts.randomMask(kRows + 1, kWidth,
                                                       0.9, 21))
                  .get(),
              shared.get());

    // Compressed layouts read the mask's non-zeros: one per mask.
    for (const FormatKind format : {FormatKind::Beicsr, FormatKind::Csr}) {
        EXPECT_NE(artifacts
                      .preparedLayout(format, kWidth, kSlice, kDensity,
                                      kBase, sparse)
                      .get(),
                  artifacts
                      .preparedLayout(format, kWidth, kSlice, kDensity,
                                      kBase, denser)
                      .get())
            << formatKindName(format);
    }
}

TEST(StreamArtifacts, OneChipPartitionSharesTheGlobalMasks)
{
    auto &artifacts = StreamArtifactCache::instance();
    clearSweepArtifacts();
    const CsrGraph graph = testGraph(3);

    const auto whole =
        artifacts.partition(graph, 1, PartitionPolicy::EdgeBalanced);

    // The lone shard's slice is the parent handle, not a gathered
    // copy, so a one-chip run holds one copy of every mask.
    const auto mask =
        artifacts.randomMask(graph.numVertices(), 64, 0.6, 11);
    for (bool include_halo : {true, false}) {
        const auto slice =
            artifacts.chipMask(mask, *whole, 0, include_halo);
        EXPECT_EQ(slice.mask.get(), mask.mask.get());
        EXPECT_EQ(slice.key, mask.key);
    }

    // A real shard still gathers its own rows.
    const auto halves =
        artifacts.partition(graph, 2, PartitionPolicy::EdgeBalanced);
    EXPECT_NE(artifacts.chipMask(mask, *halves, 0, true).mask.get(),
              mask.mask.get());
}

TEST(StreamArtifacts, ClearSweepArtifactsEmptiesBothCaches)
{
    const Dataset dataset =
        instantiateDataset(datasetByAbbrev("CR"), 0.1);
    NetworkSpec net;
    net.layers = 4;
    RunOptions opts;
    opts.sampledIntermediateLayers = 1;
    opts.mode = ExecutionMode::Fast;

    clearSweepArtifacts();
    runAll(allPersonalities(), dataset, net, opts);
    EXPECT_GT(StreamArtifactCache::instance().stats().entries, 0u);
    EXPECT_GT(PreprocessCache::instance().size(), 0u);

    // Handles handed out before the release stay valid.
    auto &artifacts = StreamArtifactCache::instance();
    const auto order = artifacts.degreeOrder(dataset.graph);

    const auto released =
        runAll(allPersonalities(), dataset, net, opts);
    clearSweepArtifacts();
    EXPECT_EQ(StreamArtifactCache::instance().stats().entries, 0u);
    EXPECT_EQ(StreamArtifactCache::instance().footprintBytes(), 0u);
    EXPECT_EQ(PreprocessCache::instance().size(), 0u);
    EXPECT_EQ(order->size(), dataset.graph.numVertices());

    // A post-release sweep recomputes and still agrees exactly.
    const auto recomputed =
        runAll(allPersonalities(), dataset, net, opts);
    ASSERT_EQ(recomputed.size(), released.size());
    for (std::size_t i = 0; i < released.size(); ++i)
        expectIdentical(released[i], recomputed[i]);
}

} // namespace
} // namespace sgcn
