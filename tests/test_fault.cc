/**
 * @file
 * The fault-injection layer (src/sim/fault/). The load-bearing
 * contracts: the spec grammar round-trips through canonical() so any
 * banner line replays the run exactly; fault decisions are pure
 * counter hashes, so timelines and CSV output are bit-identical at
 * any --jobs value and across chunked-parallel vs chunked-serial
 * synth builds (this binary carries the "thread" ctest label and
 * runs under the ThreadSanitizer CI job); an empty plan leaves every
 * run bit-identical to the fault-free build; and chip-fail under
 * repartition preserves work counts while fail-fast surfaces a typed
 * ChipFailure error.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "accel/report.hh"
#include "accel/runner.hh"
#include "fixtures.hh"
#include "gcn/sparsity_model.hh"
#include "graph/generators.hh"
#include "sim/fault/fault.hh"

namespace sgcn
{
namespace
{

using testfx::expectCountsIdentical;
using testfx::expectLayerIdentical;
using testfx::expectRunIdentical;

FaultPlan
plan(const std::string &spec)
{
    Expected<FaultPlan> parsed = FaultPlan::parse(spec);
    EXPECT_TRUE(parsed.ok()) << spec;
    return std::move(parsed).orFatal();
}

void
expectFaultStatsIdentical(const FaultStats &a, const FaultStats &b)
{
    EXPECT_EQ(a.enabled, b.enabled);
    EXPECT_EQ(a.spec, b.spec);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.degradedMode, b.degradedMode);
    EXPECT_EQ(a.linkRetries, b.linkRetries);
    EXPECT_EQ(a.backoffCycles, b.backoffCycles);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.dramRetries, b.dramRetries);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
    EXPECT_EQ(a.recoveryCycles, b.recoveryCycles);
    EXPECT_EQ(a.failedChips, b.failedChips);
    EXPECT_EQ(a.survivingChips, b.survivingChips);
    EXPECT_EQ(a.repartitions, b.repartitions);
    EXPECT_EQ(a.recoveredLayers, b.recoveredLayers);
}

// --------------------------------------------------------------
// Spec grammar
// --------------------------------------------------------------

TEST(FaultPlanParse, EmptySpecIsInactive)
{
    const FaultPlan empty = plan("");
    EXPECT_FALSE(empty.active());
    EXPECT_TRUE(empty.canonical().empty());
}

TEST(FaultPlanParse, CanonicalRoundTripsEveryClauseKind)
{
    const std::string spec =
        "link-degrade:chip2:0.5,chip-stall:chip1:5000@layer3,"
        "chip-fail:chip3@layer1,dram-retry:0.01,seed:42";
    const FaultPlan parsed = plan(spec);
    EXPECT_TRUE(parsed.active());
    EXPECT_EQ(parsed.seed, 42u);
    EXPECT_DOUBLE_EQ(parsed.linkDegradeProb(2), 0.5);
    EXPECT_EQ(parsed.chipStall(1, 3), 5000u);
    EXPECT_EQ(parsed.chipStall(1, 2), 0u);
    EXPECT_TRUE(parsed.failsAt(3, 1));
    EXPECT_FALSE(parsed.failsAt(3, 0));
    EXPECT_DOUBLE_EQ(parsed.dramRetryProb(), 0.01);

    // The canonical spec replays to an identical plan: this is the
    // run-banner replay contract.
    const std::string canonical = parsed.canonical();
    const FaultPlan replayed = plan(canonical);
    EXPECT_EQ(replayed.canonical(), canonical);
    EXPECT_EQ(replayed.seed, parsed.seed);
    EXPECT_EQ(replayed.faults.size(), parsed.faults.size());
}

TEST(FaultPlanParse, DefaultSeedIsAppliedAndEchoed)
{
    const FaultPlan parsed = plan("dram-retry:0.5");
    EXPECT_EQ(parsed.seed, kDefaultFaultSeed);
    // canonical() always pins the seed so a replay cannot drift if
    // the default ever changes.
    EXPECT_NE(parsed.canonical().find("seed:"), std::string::npos);
}

TEST(FaultPlanParse, MalformedSpecsAreParseErrors)
{
    for (const char *bad :
         {"bogus", "link-degrade", "link-degrade:chipX:0.5",
          "link-degrade:chip1:1.5", "link-degrade:chip1:-0.1",
          "chip-stall:chip1", "chip-stall:chip1:12x",
          "chip-fail:chip1@layerQ", "dram-retry:nope", "seed:42",
          "link-degrade:chip1:0.5,,", "seed:9q"}) {
        Expected<FaultPlan> parsed = FaultPlan::parse(bad);
        ASSERT_FALSE(parsed.ok()) << bad;
        EXPECT_EQ(parsed.error().code, ErrorCode::ParseError) << bad;
    }
}

TEST(FaultPlanValidate, ChipTargetedFaultsNeedAShardedRun)
{
    const FaultPlan degrade = plan("link-degrade:chip1:0.5");
    EXPECT_FALSE(degrade.validate(1, 28).ok());
    EXPECT_TRUE(degrade.validate(2, 28).ok());
    // Chip ids are range-checked against the run shape, and layers
    // against the network's depth.
    EXPECT_FALSE(plan("chip-fail:chip7@layer1").validate(4, 28).ok());
    EXPECT_TRUE(plan("chip-fail:chip1@layer27").validate(2, 28).ok());
    EXPECT_FALSE(plan("chip-fail:chip1@layer28").validate(2, 28).ok());
    const Status past = plan("chip-stall:chip1:9@layer28").validate(2, 28);
    ASSERT_FALSE(past.ok());
    EXPECT_EQ(past.error().message,
              "fault 'chip-stall:chip1@layer28' targets layer 28 but the "
              "network has layers 0..27");
    // dram-retry applies to any shape, including monolithic.
    EXPECT_TRUE(plan("dram-retry:0.1").validate(1, 28).ok());
}

TEST(FaultInjector, HashUniformIsDeterministicAndInRange)
{
    for (std::uint64_t counter = 0; counter < 64; ++counter) {
        const double u = FaultInjector::hashUniform(7, 3, counter);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_EQ(u, FaultInjector::hashUniform(7, 3, counter));
    }
    // Streams decorrelate: same counter, different stream.
    EXPECT_NE(FaultInjector::hashUniform(7, 3, 0),
              FaultInjector::hashUniform(7, 4, 0));
}

// --------------------------------------------------------------
// Determinism of injected runs
// --------------------------------------------------------------

struct FaultRuns : ::testing::Test
{
    NetworkSpec net;
    RunOptions opts;

    void
    SetUp() override
    {
        opts.sampledIntermediateLayers = 2;
        opts.chips = 4;
    }
};

TEST_F(FaultRuns, TimelineAndCsvAreJobsInvariant)
{
    const Dataset cora = testfx::cora();
    for (ExecutionMode mode :
         {ExecutionMode::Fast, ExecutionMode::Timing}) {
        RunOptions serial = opts;
        serial.mode = mode;
        serial.faults = plan("link-degrade:chip1:0.5,"
                             "chip-stall:chip2:3000,dram-retry:0.2");
        serial.jobs = 1;
        RunOptions fanned = serial;
        fanned.jobs = 8;
        const RunResult a = runNetwork(makeSgcn(), cora, net, serial);
        const RunResult b = runNetwork(makeSgcn(), cora, net, fanned);
        expectRunIdentical(a, b);
        expectFaultStatsIdentical(a.faults, b.faults);
        EXPECT_EQ(testfx::csvText({a}), testfx::csvText({b}));
    }
}

TEST_F(FaultRuns, ChunkedBuildJobsDoNotPerturbTheFaultTimeline)
{
    // The chunked-RNG generator protocol promises the same graph at
    // any build parallelism; the fault timeline (a pure function of
    // graph, partition, and plan seed) must therefore be identical
    // between a chunked-serial and a chunked-parallel synth build.
    const DatasetSpec spec = datasetByAbbrev("synth:2k");
    ClusteredGraphParams params;
    params.vertices = 2000;
    params.avgDegree = 8.0;
    params.seed = 99;
    params.chunkedRng = true;
    params.jobs = 1;
    CsrGraph serial_graph = clusteredGraph(params);
    params.jobs = 8;
    CsrGraph parallel_graph = clusteredGraph(params);

    Dataset serial_build{spec, std::move(serial_graph),
                         spec.inputFeatures, 1.0, 0.0};
    Dataset parallel_build{spec, std::move(parallel_graph),
                           spec.inputFeatures, 1.0, 0.0};

    RunOptions faulted = opts;
    faulted.faults =
        plan("link-degrade:chip1:0.5,chip-fail:chip3@layer1");
    const RunResult a =
        runNetwork(makeSgcn(), serial_build, net, faulted);
    const RunResult b =
        runNetwork(makeSgcn(), parallel_build, net, faulted);
    expectRunIdentical(a, b);
    expectFaultStatsIdentical(a.faults, b.faults);
}

TEST_F(FaultRuns, EmptyPlanIsBitIdenticalToTheFaultFreeBuild)
{
    const Dataset cora = testfx::cora();
    RunOptions baseline = opts;
    RunOptions empty_plan = opts;
    empty_plan.faults = plan("");
    const RunResult a = runNetwork(makeSgcn(), cora, net, baseline);
    const RunResult b = runNetwork(makeSgcn(), cora, net, empty_plan);
    expectRunIdentical(a, b);
    EXPECT_FALSE(b.faults.enabled);
    // The CSV stays in the pre-fault shape: fault columns are only
    // ever appended for runs that injected something.
    EXPECT_EQ(testfx::csvText({a}), testfx::csvText({b}));
    EXPECT_EQ(testfx::csvText({b}).find("fault"), std::string::npos);
}

// --------------------------------------------------------------
// Injected behaviour
// --------------------------------------------------------------

TEST_F(FaultRuns, LinkDegradationCostsCyclesButNotWork)
{
    const Dataset cora = testfx::cora();
    RunOptions faulted = opts;
    faulted.faults = plan("link-degrade:chip1:0.5");
    const RunResult clean = runNetwork(makeSgcn(), cora, net, opts);
    const RunResult run = runNetwork(makeSgcn(), cora, net, faulted);
    EXPECT_TRUE(run.faults.enabled);
    EXPECT_GT(run.faults.linkRetries, 0u);
    EXPECT_GT(run.faults.backoffCycles, 0u);
    EXPECT_GT(run.total.cycles, clean.total.cycles);
    // Retries re-price the exchange; they never redo engine work.
    expectCountsIdentical(run.total, clean.total);
}

TEST_F(FaultRuns, ChipStallLengthensTheStalledTimeline)
{
    const Dataset cora = testfx::cora();
    RunOptions faulted = opts;
    faulted.faults = plan("chip-stall:chip2:50000");
    const RunResult clean = runNetwork(makeSgcn(), cora, net, opts);
    const RunResult run = runNetwork(makeSgcn(), cora, net, faulted);
    EXPECT_GT(run.faults.stallCycles, 0u);
    EXPECT_GT(run.total.cycles, clean.total.cycles);
    expectCountsIdentical(run.total, clean.total);
}

TEST_F(FaultRuns, DramRetriesSurfaceInTimingMode)
{
    const Dataset cora = testfx::cora();
    RunOptions faulted = opts;
    faulted.mode = ExecutionMode::Timing;
    faulted.faults = plan("dram-retry:0.3");
    RunOptions clean_opts = faulted;
    clean_opts.faults = plan("");
    const RunResult clean =
        runNetwork(makeSgcn(), cora, net, clean_opts);
    const RunResult run = runNetwork(makeSgcn(), cora, net, faulted);
    EXPECT_GT(run.faults.dramRetries, 0u);
    EXPECT_EQ(run.faults.dramRetries, run.total.dramRetries);
    EXPECT_GT(run.total.cycles, clean.total.cycles);
    EXPECT_EQ(run.total.macs, clean.total.macs);
}

TEST_F(FaultRuns, ChipFailRepartitionPreservesWorkAndPaysRecovery)
{
    const Dataset cora = testfx::cora();
    RunOptions faulted = opts;
    faulted.faults = plan("chip-fail:chip1@layer1");
    faulted.degradedMode = DegradedMode::Repartition;
    const RunResult clean = runNetwork(makeSgcn(), cora, net, opts);
    const RunResult run = runNetwork(makeSgcn(), cora, net, faulted);
    // Failure is detected at the layer boundary, before any engine
    // runs: total work is bit-identical to the failure-free run.
    EXPECT_EQ(run.total.macs, clean.total.macs);
    EXPECT_GT(run.faults.recoveryCycles, 0u);
    EXPECT_EQ(run.faults.failedChips, 1u);
    EXPECT_EQ(run.faults.survivingChips, opts.chips - 1);
    EXPECT_GE(run.faults.repartitions, 1u);
    EXPECT_GT(run.total.cycles, clean.total.cycles);
}

TEST_F(FaultRuns, RepartitionRenumbersSurvivorExports)
{
    const Dataset cora = testfx::cora();
    RunOptions faulted = opts;
    faulted.faults = plan("chip-fail:chip1@layer1");
    faulted.degradedMode = DegradedMode::Repartition;
    const RunResult clean = runNetwork(makeSgcn(), cora, net, opts);
    const RunResult run = runNetwork(makeSgcn(), cora, net, faulted);

    // Clean sharded runs keep the identity numbering over every
    // configured chip.
    ASSERT_EQ(clean.shard.chipIds.size(), opts.chips);
    for (unsigned c = 0; c < opts.chips; ++c)
        EXPECT_EQ(clean.shard.chipIds[c], c);
    EXPECT_TRUE(clean.faults.recoveredLayers.empty());

    // After chip 1 dies, per-chip exports index only the survivors,
    // named by their original ids, and the bottleneck is taken over
    // the surviving slots (not a dead chip's stale partial sum).
    EXPECT_EQ(run.shard.chipIds, (std::vector<unsigned>{0, 2, 3}));
    ASSERT_EQ(run.shard.chipCycles.size(), 3u);
    EXPECT_EQ(run.shard.bottleneckChipCycles,
              *std::max_element(run.shard.chipCycles.begin(),
                                run.shard.chipCycles.end()));
    // Failure at layer 1 is detected at the boundary of the first
    // simulated layer at or after it (the first sampled
    // intermediate), which is the layer that replays.
    ASSERT_EQ(run.faults.recoveredLayers.size(), 1u);
    EXPECT_GE(run.faults.recoveredLayers.front(), 1u);

    // Schedule export: the recovered column appears only when some
    // exported run replayed a layer, labels exactly the replayed
    // layer's rows, and every row keeps uniform arity.
    auto arch_layers = sampleLayerIndices(
        net.layers - 1, opts.sampledIntermediateLayers);
    for (unsigned &layer : arch_layers)
        ++layer;
    const std::string clean_path =
        "/tmp/sgcn_fault_sched_clean_" + std::to_string(::getpid()) +
        ".csv";
    const std::string mixed_path =
        "/tmp/sgcn_fault_sched_mixed_" + std::to_string(::getpid()) +
        ".csv";
    writeSchedulesCsv({clean}, arch_layers, clean_path);
    writeSchedulesCsv({clean, run}, arch_layers, mixed_path);
    const auto read_lines = [](const std::string &path) {
        std::ifstream in(path);
        std::vector<std::string> lines;
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
        return lines;
    };
    const auto clean_lines = read_lines(clean_path);
    const auto mixed_lines = read_lines(mixed_path);
    std::remove(clean_path.c_str());
    std::remove(mixed_path.c_str());

    ASSERT_FALSE(clean_lines.empty());
    EXPECT_EQ(clean_lines.front().find(",recovered"),
              std::string::npos);
    ASSERT_FALSE(mixed_lines.empty());
    EXPECT_NE(mixed_lines.front().find(",recovered"),
              std::string::npos);
    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    const std::string recovered_prefix =
        "SGCN,CR," + std::to_string(run.faults.recoveredLayers.front()) +
        ",";
    bool saw_recovered_row = false;
    for (const std::string &line : mixed_lines) {
        EXPECT_EQ(commas(line), commas(mixed_lines.front()));
        if (line.find(recovered_prefix) == 0 && line.size() >= 2 &&
            line.substr(line.size() - 2) == ",1")
            saw_recovered_row = true;
    }
    EXPECT_TRUE(saw_recovered_row);
}

TEST_F(FaultRuns, LoneSurvivorLayersAreTheOneChipLayers)
{
    // Two chips, chip 1 dies: past its recovered layer the survivor
    // runs the one-chip partition behind a free exchange, so the
    // compose hands its layer back unchanged, per-layer bandwidth
    // utilization included, exactly as in a one-chip run.
    const Dataset cora = testfx::cora();
    for (ExecutionMode mode :
         {ExecutionMode::Fast, ExecutionMode::Timing}) {
        RunOptions faulted = opts;
        faulted.mode = mode;
        faulted.chips = 2;
        faulted.faults = plan("chip-fail:chip1@layer1");
        faulted.degradedMode = DegradedMode::Repartition;
        RunOptions one_chip = opts;
        one_chip.mode = mode;
        one_chip.chips = 1;
        const RunResult run = runNetwork(makeSgcn(), cora, net, faulted);
        const RunResult lone =
            runNetwork(makeSgcn(), cora, net, one_chip);

        ASSERT_EQ(run.sampledLayers.size(), 2u);
        ASSERT_EQ(run.faults.recoveredLayers.size(), 1u);
        EXPECT_EQ(run.faults.survivingChips, 1u);
        // The recovered layer still pays its recovery up front ...
        EXPECT_GT(run.sampledLayers[0].cycles,
                  lone.sampledLayers[0].cycles);
        // ... and the next one is the survivor's own layer.
        EXPECT_GT(run.sampledLayers[1].bwUtil, 0.0);
        expectLayerIdentical(run.sampledLayers[1],
                             lone.sampledLayers[1]);
    }
}

TEST_F(FaultRuns, FailFastSurfacesATypedChipFailure)
{
    const Dataset cora = testfx::cora();
    RunOptions faulted = opts;
    faulted.faults = plan("chip-fail:chip1@layer1");
    faulted.degradedMode = DegradedMode::FailFast;
    Expected<RunResult> run =
        tryRunNetwork(makeSgcn(), cora, net, faulted);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.error().code, ErrorCode::ChipFailure);
    EXPECT_NE(run.error().message.find("chip 1"), std::string::npos);
}

TEST_F(FaultRuns, InvalidPlanForTheRunShapeIsATypedError)
{
    const Dataset cora = testfx::cora();
    RunOptions faulted = opts;
    faulted.chips = 1;
    faulted.faults = plan("link-degrade:chip1:0.5");
    Expected<RunResult> run =
        tryRunNetwork(makeSgcn(), cora, net, faulted);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.error().code, ErrorCode::InvalidArgument);
}

TEST_F(FaultRuns, ZeroChipsIsATypedError)
{
    RunOptions none = opts;
    none.chips = 0;
    Expected<RunResult> run =
        tryRunNetwork(makeSgcn(), testfx::cora(), net, none);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.error().code, ErrorCode::InvalidArgument);
}

} // namespace
} // namespace sgcn
