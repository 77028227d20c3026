/**
 * @file
 * The serving-trace subsystem (src/serve/, src/graph/sampler). The
 * load-bearing contracts: nearest-rank percentiles match the closed
 * form; the arrival process and the whole served trace are
 * bit-identical at any --jobs value (this binary carries the
 * "thread" ctest label and runs under the ThreadSanitizer CI job);
 * admission never lets a request linger past the cap or a batch
 * exceed its size cap; ego-network samples are pure functions of
 * (trace seed, request) — independent of batch membership; the batch
 * subgraph preserves parent weights verbatim; and a --faults plan
 * replays to an identical tail.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "fixtures.hh"
#include "graph/sampler.hh"
#include "serve/serve.hh"

namespace sgcn
{
namespace
{

ServeOptions
smallTrace()
{
    ServeOptions serve;
    serve.offeredQps = 50000.0; // keep cycle spans small
    serve.requests = 48;
    serve.maxBatch = 6;
    serve.maxLingerCycles = 40000;
    serve.sample.hops = 2;
    serve.sample.fanout = 5;
    return serve;
}

RunOptions
serveRunOptions(unsigned jobs = 1)
{
    RunOptions opts;
    opts.sampledIntermediateLayers = 2;
    opts.jobs = jobs;
    return opts;
}

// --------------------------------------------------------------
// Percentile math
// --------------------------------------------------------------

TEST(LatencyPercentile, MatchesNearestRankClosedForm)
{
    // 10 known samples: nearest-rank percentile p is the
    // ceil(p/100 * 10)-th smallest value.
    const std::vector<Cycle> samples{10, 20, 30, 40,  50,
                                     60, 70, 80, 90, 100};
    EXPECT_EQ(latencyPercentile(samples, 50.0), 50u);
    EXPECT_EQ(latencyPercentile(samples, 90.0), 90u);
    EXPECT_EQ(latencyPercentile(samples, 95.0), 100u);
    EXPECT_EQ(latencyPercentile(samples, 99.0), 100u);
    EXPECT_EQ(latencyPercentile(samples, 100.0), 100u);
    // Below one-sample resolution clamps to the minimum.
    EXPECT_EQ(latencyPercentile(samples, 1.0), 10u);
    // Order must not matter: the function sorts its copy.
    std::vector<Cycle> shuffled{90, 10, 100, 30, 50,
                                70, 20, 80,  40, 60};
    EXPECT_EQ(latencyPercentile(shuffled, 95.0), 100u);
    EXPECT_EQ(latencyPercentile({}, 99.0), 0u);
    EXPECT_EQ(latencyPercentile({42}, 50.0), 42u);
}

TEST(LatencyPercentile, AgreesWithBruteForceOnOddSizes)
{
    std::vector<Cycle> samples;
    for (Cycle v = 1; v <= 17; ++v)
        samples.push_back(v * 3);
    for (double pct : {1.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0}) {
        const auto rank = static_cast<std::size_t>(std::ceil(
            pct / 100.0 * static_cast<double>(samples.size())));
        EXPECT_EQ(latencyPercentile(samples, pct),
                  samples[std::max<std::size_t>(rank, 1) - 1])
            << pct;
    }
}

// --------------------------------------------------------------
// Arrival process
// --------------------------------------------------------------

TEST(GenerateArrivals, PoissonStreamIsSeededAndMonotone)
{
    const ServeOptions serve = smallTrace();
    const std::vector<Cycle> a = generateArrivals(serve);
    const std::vector<Cycle> b = generateArrivals(serve);
    ASSERT_EQ(a.size(), serve.requests);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));

    ServeOptions reseeded = serve;
    reseeded.sample.seed ^= 1;
    EXPECT_NE(generateArrivals(reseeded), a);
}

TEST(GenerateArrivals, FixedRateSpacingIsExact)
{
    ServeOptions serve = smallTrace();
    serve.poisson = false;
    serve.offeredQps = 1.0e6; // 1000 cycles apart at 1 GHz
    const std::vector<Cycle> arrivals = generateArrivals(serve);
    ASSERT_EQ(arrivals.size(), serve.requests);
    for (std::size_t r = 0; r < arrivals.size(); ++r)
        EXPECT_EQ(arrivals[r], (r + 1) * 1000u);
}

// --------------------------------------------------------------
// Admission / batching invariants
// --------------------------------------------------------------

TEST(AdmitBatches, InvariantsHoldOnPoissonTrace)
{
    const ServeOptions serve = smallTrace();
    const std::vector<Cycle> arrivals = generateArrivals(serve);
    const std::vector<RequestBatch> batches = admitBatches(
        arrivals, serve.maxBatch, serve.maxLingerCycles);

    ASSERT_FALSE(batches.empty());
    std::uint32_t next = 0;
    for (const RequestBatch &batch : batches) {
        // Batches partition the trace in arrival order.
        EXPECT_EQ(batch.first, next);
        next += batch.count;
        ASSERT_GE(batch.count, 1u);
        // No batch exceeds the size cap.
        EXPECT_LE(batch.count, serve.maxBatch);
        // No member waits past the linger cap before the batch
        // closes, and none closes before its last member arrived.
        const Cycle deadline =
            arrivals[batch.first] + serve.maxLingerCycles;
        EXPECT_LE(batch.closeCycle, deadline);
        for (std::uint32_t r = 0; r < batch.count; ++r)
            EXPECT_GE(batch.closeCycle,
                      arrivals[batch.first + r]);
        // A short batch only closes because the linger expired or
        // the trace ended.
        if (batch.count < serve.maxBatch &&
            batch.first + batch.count < arrivals.size()) {
            EXPECT_EQ(batch.closeCycle, deadline);
            EXPECT_GE(arrivals[batch.first + batch.count], deadline);
        }
    }
    EXPECT_EQ(next, arrivals.size());
}

TEST(AdmitBatches, BackToBackArrivalsFillBatches)
{
    // Ten simultaneous arrivals with batch cap 4: 4+4+2.
    const std::vector<Cycle> arrivals(10, 100);
    const std::vector<RequestBatch> batches =
        admitBatches(arrivals, 4, 1000000);
    ASSERT_EQ(batches.size(), 3u);
    EXPECT_EQ(batches[0].count, 4u);
    EXPECT_EQ(batches[1].count, 4u);
    EXPECT_EQ(batches[2].count, 2u);
    // Full batches close on their filling arrival, not the linger.
    EXPECT_EQ(batches[0].closeCycle, 100u);
    EXPECT_EQ(batches[1].closeCycle, 100u);
    // The trailing short batch waits out the linger.
    EXPECT_EQ(batches[2].closeCycle, 100u + 1000000u);
}

// --------------------------------------------------------------
// Sampler determinism
// --------------------------------------------------------------

TEST(EgoSampler, SampleIsIndependentOfBatchMembership)
{
    const Dataset dataset = testfx::cora();
    EgoSampleParams params;
    params.hops = 2;
    params.fanout = 4;
    const auto solo = sampleEgoNet(dataset.graph, params.seed, 7,
                                   params);
    const auto again = sampleEgoNet(dataset.graph, params.seed, 7,
                                    params);
    EXPECT_EQ(solo, again);

    // The same request inside two different batches contributes the
    // same edges: the union subgraph of [7, 8) is exactly solo's
    // edge set (deduplicated).
    const BatchSubgraph one =
        sampleBatchSubgraph(dataset.graph, 7, 1, params);
    std::vector<EdgePair> dedup = solo;
    std::sort(dedup.begin(), dedup.end());
    dedup.erase(std::unique(dedup.begin(), dedup.end()),
                dedup.end());
    EXPECT_EQ(one.sampledEdges, dedup.size());

    // Different requests draw from decorrelated streams.
    EXPECT_NE(sampleEgoNet(dataset.graph, params.seed, 8, params),
              solo);
}

TEST(EgoSampler, BatchSubgraphEdgesComeFromParentRows)
{
    // Cora's rows are short; RD at scale 0.05 (819 vertices, max
    // degree 786) makes the sampler's self-loop search cross long
    // parent rows.
    const std::pair<const char *, double> fixtures[] = {
        {"CR", testfx::kDefaultScale}, {"RD", 0.05}};
    for (const auto &[abbrev, scale] : fixtures) {
        SCOPED_TRACE(abbrev);
        const Dataset dataset = testfx::datasetFixture(abbrev, scale);
        EgoSampleParams params;
        params.fanout = 6;
        const BatchSubgraph sub =
            sampleBatchSubgraph(dataset.graph, 0, 4, params);
        ASSERT_GT(sub.graph.numVertices(), 0u);
        ASSERT_EQ(sub.vertices.size(), sub.graph.numVertices());
        EXPECT_TRUE(std::is_sorted(sub.vertices.begin(),
                                   sub.vertices.end()));
        ASSERT_EQ(sub.roots.size(), 4u);

        // Every subgraph edge is an edge of the parent row.
        for (VertexId row = 0; row < sub.graph.numVertices(); ++row) {
            const VertexId parent = sub.vertices[row];
            const auto parent_nbrs = dataset.graph.neighbors(parent);
            for (VertexId col : sub.graph.neighbors(row)) {
                const VertexId target = sub.vertices[col];
                const auto it = std::lower_bound(parent_nbrs.begin(),
                                                 parent_nbrs.end(),
                                                 target);
                ASSERT_TRUE(it != parent_nbrs.end() && *it == target);
            }
        }
    }
}

TEST(EgoSampler, BatchSubgraphsArePinned)
{
    // Exact vertex, edge and self-loop counts and content
    // fingerprints of batches on a short-row and a long-row fixture.
    // The fingerprint hashes the row pointers and the columns in
    // order, so a row written unsorted (say, its self loop appended
    // last) fails here even when every count holds.
    struct Pin
    {
        std::uint64_t first;
        unsigned count;
        unsigned fanout;
        VertexId vertices;
        EdgeId edges;
        EdgeId selfLoops;
        std::pair<std::uint64_t, std::uint64_t> fingerprint;
    };
    struct Fixture
    {
        const char *abbrev;
        double scale;
        std::vector<Pin> pins;
    };
    const Fixture fixtures[] = {
        {"CR",
         testfx::kDefaultScale,
         {{0, 4, 10, 87, 193, 87,
           {0x489a57f0b6cfde7cULL, 0x90ca760a1d4d130cULL}},
          {37, 16, 10, 301, 708, 301,
           {0x47fbe97f91d96309ULL, 0xbe52d2f21d5d9d19ULL}},
          {500, 1, 10, 17, 38, 17,
           {0x14c72ac286053a64ULL, 0x9c098ecac486b434ULL}}}},
        {"RD",
         0.05,
         {{0, 4, 6, 137, 287, 137,
           {0x1a74dfedf15fd55dULL, 0xf6932d585ab82a5dULL}},
          {211, 8, 10, 509, 1355, 509,
           {0x41fcc8c13999018dULL, 0xa0c1120c575293e1ULL}},
          {1000, 32, 10, 797, 3961, 797,
           {0x7856e6787a1c5201ULL, 0xd11dbcaee6798801ULL}}}},
    };
    for (const Fixture &fixture : fixtures) {
        const Dataset dataset =
            testfx::datasetFixture(fixture.abbrev, fixture.scale);
        for (const Pin &pin : fixture.pins) {
            SCOPED_TRACE(::testing::Message()
                         << fixture.abbrev << " first " << pin.first
                         << " count " << pin.count);
            EgoSampleParams params;
            params.fanout = pin.fanout;
            const BatchSubgraph sub = sampleBatchSubgraph(
                dataset.graph, pin.first, pin.count, params);
            EXPECT_EQ(sub.graph.numVertices(), pin.vertices);
            EXPECT_EQ(sub.graph.numEdges(), pin.edges);
            EXPECT_EQ(sub.graph.numEdges() -
                          sub.graph.numEdgesNoSelfLoops(),
                      pin.selfLoops);
            EXPECT_EQ(sub.graph.contentFingerprint(), pin.fingerprint);
        }
    }
}

// --------------------------------------------------------------
// Served traces: jobs-invariance and fault replay
// --------------------------------------------------------------

void
expectServeStatsIdentical(const ServeStats &a, const ServeStats &b)
{
    EXPECT_EQ(a.enabled, b.enabled);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.p50Cycles, b.p50Cycles);
    EXPECT_EQ(a.p95Cycles, b.p95Cycles);
    EXPECT_EQ(a.p99Cycles, b.p99Cycles);
    EXPECT_EQ(a.sustainedQps, b.sustainedQps);
    EXPECT_EQ(a.meanOccupancy, b.meanOccupancy);
    EXPECT_EQ(a.peakOccupancy, b.peakOccupancy);
    EXPECT_EQ(a.makespanCycles, b.makespanCycles);
    EXPECT_EQ(a.subgraphVertices, b.subgraphVertices);
    EXPECT_EQ(a.subgraphEdges, b.subgraphEdges);
}

TEST(ServeTrace, BitIdenticalAcrossJobCounts)
{
    const Dataset dataset = testfx::cora();
    NetworkSpec net;
    net.layers = 8;
    const ServeOptions serve = smallTrace();

    const RunResult serial = serveTrace(
        makeSgcn(), dataset, net, serveRunOptions(1), serve);
    const RunResult threaded = serveTrace(
        makeSgcn(), dataset, net, serveRunOptions(8), serve);
    ASSERT_TRUE(serial.serve.enabled);
    expectServeStatsIdentical(serial.serve, threaded.serve);
    testfx::expectCountsIdentical(serial.total, threaded.total);
    EXPECT_EQ(serial.total.cycles, threaded.total.cycles);
    EXPECT_EQ(testfx::csvText({serial}), testfx::csvText({threaded}));

    // Sanity on the aggregate shape: every request is charged a
    // positive latency and occupancy respects the caps.
    EXPECT_EQ(serial.serve.requests, serve.requests);
    EXPECT_GE(serial.serve.p99Cycles, serial.serve.p50Cycles);
    EXPECT_LE(serial.serve.peakOccupancy, serve.maxBatch);
    EXPECT_GT(serial.serve.sustainedQps, 0.0);
}

TEST(ServeTrace, FaultPlanReplaysIdenticalTail)
{
    const Dataset dataset = testfx::cora();
    NetworkSpec net;
    net.layers = 8;
    const ServeOptions serve = smallTrace();

    RunOptions opts = serveRunOptions(4);
    opts.chips = 2;
    opts.faults =
        FaultPlan::parse("link-degrade:chip1:0.5").orFatal();

    const RunResult first =
        serveTrace(makeSgcn(), dataset, net, opts, serve);
    const RunResult replay =
        serveTrace(makeSgcn(), dataset, net, opts, serve);
    ASSERT_TRUE(first.faults.enabled);
    expectServeStatsIdentical(first.serve, replay.serve);
    EXPECT_EQ(first.faults.linkRetries, replay.faults.linkRetries);
    EXPECT_EQ(first.faults.backoffCycles,
              replay.faults.backoffCycles);

    // And the degraded link measurably shifts the tail versus the
    // fault-free trace on the same arrivals.
    RunOptions clean = opts;
    clean.faults = {};
    const RunResult base =
        serveTrace(makeSgcn(), dataset, net, clean, serve);
    EXPECT_EQ(base.serve.batches, first.serve.batches);
    EXPECT_GT(first.serve.p99Cycles, base.serve.p99Cycles);
}

TEST(ServeTrace, ChipFailReportsTheEndTopologyOnce)
{
    // Every batch replays the same chip-fail clause, so the served
    // trace ends on the topology a single run ends on: the failed
    // and surviving chips and the replayed layers are any batch's,
    // while the repartition events sum over batches.
    const Dataset dataset = testfx::cora();
    NetworkSpec net;
    net.layers = 8;
    RunOptions opts = serveRunOptions(2);
    opts.chips = 4;
    opts.faults = FaultPlan::parse("chip-fail:chip1@layer2").orFatal();

    const RunResult single =
        tryRunNetwork(makeSgcn(), dataset, net, opts).value();
    const RunResult served =
        serveTrace(makeSgcn(), dataset, net, opts, smallTrace());
    ASSERT_EQ(single.faults.failedChips, 1u);
    EXPECT_EQ(served.faults.failedChips, single.faults.failedChips);
    EXPECT_EQ(served.faults.survivingChips,
              single.faults.survivingChips);
    EXPECT_EQ(served.faults.recoveredLayers,
              single.faults.recoveredLayers);
    EXPECT_EQ(served.faults.failedChips + served.faults.survivingChips,
              served.shard.chips);
    EXPECT_EQ(served.faults.repartitions, served.serve.batches);
}

TEST(ServeTrace, CsvAppendsServeColumnsForMixedSweeps)
{
    const Dataset dataset = testfx::cora();
    NetworkSpec net;
    net.layers = 8;
    const RunResult served = serveTrace(
        makeSgcn(), dataset, net, serveRunOptions(2), smallTrace());
    RunResult plain;
    plain.accelName = "GCNAX";
    plain.datasetAbbrev = "CR";

    std::istringstream csv(testfx::csvText({served, plain}));
    std::string header, served_row, plain_row;
    std::getline(csv, header);
    std::getline(csv, served_row);
    std::getline(csv, plain_row);
    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_NE(header.find(",serve_requests,"), std::string::npos);
    EXPECT_EQ(commas(header), commas(served_row));
    EXPECT_EQ(commas(header), commas(plain_row));
    // A non-serving run reports empty arrival kind and zero counts.
    EXPECT_TRUE(plain_row.ends_with(",0,0,,0,0,0,0,0,0,0,0,0,0,0,0"));
    EXPECT_NE(served_row.find(",poisson,"), std::string::npos);
}

} // anonymous namespace
} // namespace sgcn
