/**
 * @file
 * Unit tests for graph file I/O (edge lists) and the
 * machine-readable result export.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "accel/personalities.hh"
#include "accel/report.hh"
#include "accel/runner.hh"
#include "fixtures.hh"
#include "graph/generators.hh"
#include "graph/io.hh"
#include "serve/serve.hh"

namespace sgcn
{
namespace
{

struct TempFile
{
    std::string path;

    explicit TempFile(const char *suffix)
        : path(std::string("/tmp/sgcn_test_") +
               std::to_string(::getpid()) + suffix)
    {
    }

    ~TempFile() { std::remove(path.c_str()); }
};

TEST(GraphIo, EdgeListRoundTrip)
{
    CsrGraph graph = clusteredGraph({.vertices = 300, .seed = 71});
    TempFile file(".edges");
    ASSERT_TRUE(saveEdgeList(graph, file.path).ok());
    // Saved edges include both directions; load as directed to avoid
    // doubling, self loops are re-added by the constructor.
    CsrGraph loaded =
        loadEdgeList(file.path, graph.numVertices(), false).value();
    EXPECT_EQ(loaded.numVertices(), graph.numVertices());
    EXPECT_EQ(loaded.numEdges(), graph.numEdges());
    EXPECT_EQ(loaded.columnIndices(), graph.columnIndices());
    EXPECT_EQ(loaded.rowPointers(), graph.rowPointers());
}

TEST(GraphIo, EdgeListParsesCommentsAndGaps)
{
    TempFile file(".edges");
    {
        std::ofstream out(file.path);
        out << "# a comment\n"
               "0 1\n"
               "\n"
               "% another comment\n"
               "2 0\n";
    }
    CsrGraph graph = loadEdgeList(file.path).value();
    EXPECT_EQ(graph.numVertices(), 3u);
    EXPECT_EQ(graph.numEdgesNoSelfLoops(), 4u); // undirected
}

TEST(GraphIo, DeclaredVertexCountOverridesMax)
{
    TempFile file(".edges");
    {
        std::ofstream out(file.path);
        out << "0 1\n";
    }
    CsrGraph graph = loadEdgeList(file.path, 10).value();
    EXPECT_EQ(graph.numVertices(), 10u);
}

// ---------------------------------------------------------------------
// Result export
// ---------------------------------------------------------------------

struct ReportFixture : ::testing::Test
{
    RunResult
    smallRun()
    {
        Dataset cora = instantiateDataset(datasetByAbbrev("CR"), 0.08);
        NetworkSpec net;
        RunOptions opts;
        opts.sampledIntermediateLayers = 1;
        return runNetwork(makeSgcn(), cora, net, opts);
    }
};

/** The CSV writeRunsCsv writes for @p runs, one string per line. */
std::vector<std::string>
csvLines(const std::vector<RunResult> &runs)
{
    std::istringstream in(testfx::csvText(runs));
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

long
commas(const std::string &s)
{
    return std::count(s.begin(), s.end(), ',');
}

TEST_F(ReportFixture, CsvRowMatchesHeaderArity)
{
    const std::vector<std::string> lines = csvLines({smallRun()});
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(commas(lines[0]), commas(lines[1]));
    EXPECT_EQ(lines[1].find("SGCN,CR,"), 0u);
}

TEST_F(ReportFixture, CsvFileWritten)
{
    const RunResult run = smallRun();
    TempFile file(".csv");
    writeRunsCsv({run, run}, file.path);
    std::ifstream in(file.path);
    ASSERT_TRUE(in.good());
    std::string line;
    int lines = 0;
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, 3); // header + 2 rows
}

TEST_F(ReportFixture, MixedFaultSweepKeepsUniformRowArity)
{
    // A sweep mixing faulted and fault-free configs must emit the
    // fault columns for every row (zeros for the clean ones), never
    // ragged rows under one header.
    const RunResult clean = smallRun();
    Dataset cora = instantiateDataset(datasetByAbbrev("CR"), 0.08);
    NetworkSpec net;
    RunOptions opts;
    opts.sampledIntermediateLayers = 1;
    opts.chips = 4;
    opts.faults =
        FaultPlan::parse("link-degrade:chip1:0.5").orFatal();
    const RunResult faulted = runNetwork(makeSgcn(), cora, net, opts);
    ASSERT_TRUE(faulted.faults.enabled);

    const std::vector<std::string> lines = csvLines({clean, faulted});
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find(",faults,"), std::string::npos);
    EXPECT_EQ(commas(lines[1]), commas(lines[0]));
    EXPECT_EQ(commas(lines[2]), commas(lines[0]));
    // The clean run's row is its fault-free row plus the zero-filled
    // fault suffix.
    EXPECT_EQ(lines[1],
              csvLines({clean})[1] + ",0,,0,,0,0,0,0,0,0,0,0,0");
}

TEST_F(ReportFixture, FaultFreeSweepCsvStaysByteIdentical)
{
    // Without any injected run the CSV keeps its pre-fault shape:
    // rerunning the sweep writes byte-identical text with no fault
    // or serve columns at all.
    const RunResult run = smallRun();
    const std::string a = testfx::csvText({run, run});
    EXPECT_EQ(a, testfx::csvText({run, run}));
    EXPECT_EQ(a.find("faults"), std::string::npos);
    EXPECT_EQ(a.find("serve_"), std::string::npos);
    // The header ends at the last shard column.
    EXPECT_TRUE(
        csvLines({run}).front().ends_with(",bottleneck_chip_cycles"));
}

TEST_F(ReportFixture, StatsFlattenConsistently)
{
    const RunResult run = smallRun();
    const StatSet stats = runResultStats(run);
    const auto &entries = stats.entries();
    EXPECT_DOUBLE_EQ(entries.at("cycles"),
                     static_cast<double>(run.total.cycles));
    EXPECT_DOUBLE_EQ(entries.at("offchip.lines"),
                     static_cast<double>(
                         run.total.traffic.totalLines()));
    EXPECT_DOUBLE_EQ(entries.at("energy.total_j"), run.energy.total());
    // Class lines sum to the total.
    double class_sum = 0.0;
    for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
        class_sum += entries.at(
            std::string("offchip.lines.") +
            trafficClassName(static_cast<TrafficClass>(c)));
    }
    EXPECT_DOUBLE_EQ(class_sum, entries.at("offchip.lines"));
    // The dump renders without crashing and contains keys.
    EXPECT_NE(stats.dump().find("cache.hit_rate"), std::string::npos);
}

// Golden bytes of one mixed export on the CR fixture: a plain
// single-chip run, a two-chip tile-pipelined run on a degraded link
// and a served trace. They pin every section's columns and keys, the
// zero-filled cells a mixed sweep writes for runs without a section,
// and the ';'-escaped fault spec. Regenerate them only for an
// intended change to the exported format.
const char *const kGoldenCsv =
    "accel,dataset,cycles,agg_cycles,comb_cycles,lines_total,"
    "lines_topology,lines_feature_in,lines_feature_out,lines_weight,"
    "lines_partial_sum,cache_accesses,cache_hits,macs,bw_util,"
    "energy_compute_j,energy_cache_j,energy_dram_j,tdp_w,area_mm2,"
    "pipelined,pipeline_gating,serial_cycles,overlap_saved_cycles,"
    "per_layer_cycles,per_tile_cycles,tile_saved_cycles,"
    "steady_advance_cycles,critical_phase,chips,partition_policy,link,"
    "halo_vertices,exchange_bytes,exchange_cycles,link_busy_cycles,"
    "link_busy_frac,bottleneck_chip_cycles,faults,fault_spec,fault_seed,"
    "degraded_mode,link_retries,backoff_cycles,link_timeouts,"
    "dram_retries,stall_cycles,recovery_cycles,failed_chips,"
    "surviving_chips,repartitions,serve_requests,serve_batches,"
    "serve_arrival,serve_offered_qps,serve_max_batch,"
    "serve_linger_cycles,serve_p50_cycles,serve_p95_cycles,"
    "serve_p99_cycles,serve_qps,serve_mean_batch,serve_peak_batch,"
    "serve_makespan_cycles,serve_subgraph_vertices,serve_subgraph_edges\n"
    "SGCN,CR,426221,195932,366080,1915678,54089,859718,865087,115824,"
    "20960,1374251,1083653,2335969359,1,0.00105119,0.000206138,"
    "0.00383136,6.82125,4.75,0,,0,0,0,0,0,0,,1,,,0,0,0,0,0,0,0,,0,,0,0,"
    "0,0,0,0,0,0,0,0,0,,0,0,0,0,0,0,0,0,0,0,0,0\n"
    "GCNAX,CR,324706,263648,226213,3373215,54040,1885175,1173760,231648,"
    "28592,2855552,1573824,2513290496,1,0.00113098,0.000428333,"
    "0.00674643,13.92,9.3,1,per-tile,592114,267408,324706,324706,0,"
    "44068,input-dma,2,edge-balanced,PCIe4,477,13829184,261376,227776,"
    "0.701484,330557,1,link-degrade:chip1:0.5;seed:1024023,1024023,"
    "repartition,1,256,0,0,0,0,0,2,0,0,0,,0,0,0,0,0,0,0,0,0,0,0,0\n"
    "SGCN,CR,232384,48104,79284,828792,5656,119930,121142,579120,2944,"
    "87896,47908,326853562,0,0.000147084,1.31844e-05,0.00165758,6.82125,"
    "4.75,0,,0,0,0,0,0,0,,1,,,0,0,0,0,0,0,0,,0,,0,0,0,0,0,0,0,0,0,8,5,"
    "poisson,2000,8,500000,538075,558147,558147,1429.31,1.6,3,5597094,"
    "184,404\n";

const char *const kGoldenPlainStats = R"(area.mm2 = 4.75
cache.accesses = 1.37425e+06
cache.hit_rate = 0.788541
cache.hits = 1.08365e+06
compute.macs = 2.33597e+09
cycles = 426221
cycles.aggregation = 195932
cycles.combination = 366080
dram.bw_util = 1
energy.cache_j = 0.000206138
energy.compute_j = 0.00105119
energy.dram_j = 0.00383136
energy.total_j = 0.00508868
offchip.lines = 1.91568e+06
offchip.lines.feature_in = 859718
offchip.lines.feature_out = 865087
offchip.lines.partial_sum = 20960
offchip.lines.topology = 54089
offchip.lines.weight = 115824
power.tdp_w = 6.82125
)";

const char *const kGoldenShardedStats = R"(area.mm2 = 9.3
cache.accesses = 2.85555e+06
cache.hit_rate = 0.551145
cache.hits = 1.57382e+06
compute.macs = 2.51329e+09
cycles = 324706
cycles.aggregation = 263648
cycles.combination = 226213
dram.bw_util = 1
energy.cache_j = 0.000428333
energy.compute_j = 0.00113098
energy.dram_j = 0.00674643
energy.total_j = 0.00830574
fault.backoff_cycles = 256
fault.dram_retries = 0
fault.failed_chips = 0
fault.link_retries = 1
fault.link_timeouts = 0
fault.recovered_layers = 0
fault.recovery_cycles = 0
fault.repartitions = 0
fault.stall_cycles = 0
fault.surviving_chips = 2
offchip.lines = 3.37322e+06
offchip.lines.feature_in = 1.88518e+06
offchip.lines.feature_out = 1.17376e+06
offchip.lines.partial_sum = 28592
offchip.lines.topology = 54040
offchip.lines.weight = 231648
pipeline.overlap_saved_cycles = 267408
pipeline.per_layer_cycles = 324706
pipeline.per_tile_cycles = 324706
pipeline.serial_cycles = 592114
pipeline.steady_advance_cycles = 44068
pipeline.tile_saved_cycles = 0
power.tdp_w = 13.92
shard.bottleneck_chip_cycles = 330557
shard.chips = 2
shard.exchange_bytes = 1.38292e+07
shard.exchange_cycles = 261376
shard.halo_vertices = 477
shard.link_busy_cycles = 227776
shard.link_busy_frac = 0.701484
)";

const char *const kGoldenServedStats = R"(area.mm2 = 4.75
cache.accesses = 87896
cache.hit_rate = 0.545053
cache.hits = 47908
compute.macs = 3.26854e+08
cycles = 232384
cycles.aggregation = 48104
cycles.combination = 79284
dram.bw_util = 0
energy.cache_j = 1.31844e-05
energy.compute_j = 0.000147084
energy.dram_j = 0.00165758
energy.total_j = 0.00181785
offchip.lines = 828792
offchip.lines.feature_in = 119930
offchip.lines.feature_out = 121142
offchip.lines.partial_sum = 2944
offchip.lines.topology = 5656
offchip.lines.weight = 579120
power.tdp_w = 6.82125
serve.batches = 5
serve.makespan_cycles = 5.59709e+06
serve.mean_batch = 1.6
serve.offered_qps = 2000
serve.p50_cycles = 538075
serve.p95_cycles = 558147
serve.p99_cycles = 558147
serve.peak_batch = 3
serve.requests = 8
serve.subgraph_edges = 404
serve.subgraph_vertices = 184
serve.sustained_qps = 1429.31
)";

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST_F(ReportFixture, MixedExportMatchesGoldenBytes)
{
    Dataset cora = instantiateDataset(datasetByAbbrev("CR"), 0.08);
    NetworkSpec net;
    RunOptions opts;
    opts.sampledIntermediateLayers = 1;
    const RunResult plain = runNetwork(makeSgcn(), cora, net, opts);

    RunOptions sharded = opts;
    sharded.chips = 2;
    sharded.interLayerOverlap = true;
    sharded.tileOverlap = true;
    sharded.faults =
        FaultPlan::parse("link-degrade:chip1:0.5").orFatal();
    const RunResult faulted =
        runNetwork(makeGcnax(), cora, net, sharded);

    ServeOptions serve;
    serve.requests = 8;
    const RunResult served =
        serveTrace(makeSgcn(), cora, net, opts, serve);

    TempFile file(".csv");
    writeRunsCsv({plain, faulted, served}, file.path);
    EXPECT_EQ(slurp(file.path), kGoldenCsv);
    EXPECT_EQ(runResultStats(plain).dump(), kGoldenPlainStats);
    EXPECT_EQ(runResultStats(faulted).dump(), kGoldenShardedStats);
    EXPECT_EQ(runResultStats(served).dump(), kGoldenServedStats);
}

} // namespace
} // namespace sgcn
