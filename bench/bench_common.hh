/**
 * @file
 * Shared helpers for the figure/table regeneration harnesses.
 *
 * Every bench accepts:
 *   --mode fast|timing   execution mode (default fast)
 *   --layers N           architectural depth (default 28)
 *   --sampled N          simulated intermediate layers (default 4)
 *   --scale X            workload scale factor (or SGCN_BENCH_SCALE)
 *   --datasets CR,CS,... subset of datasets
 *   --jobs N             sweep worker threads (default: all hardware
 *                        threads; 1 restores the serial path)
 *   --pipeline[=layer|tile]
 *                        inter-layer overlapped totals (default off;
 *                        serial isolated-layer extrapolation). =tile
 *                        gates consumers on per-tile output
 *                        availability instead of whole-layer drains.
 *   --chips N            shard each run over N >= 1 chips (default
 *                        1: the whole graph on one accelerator)
 *   --partition contiguous|edge-balanced
 *                        multi-chip vertex partitioner policy
 *   --link pcie4|noc     interconnect preset for halo exchanges
 *   --faults SPEC        deterministic fault plan (see FaultPlan);
 *                        the banner echoes the canonical spec so any
 *                        run can be replayed exactly
 *   --degraded-mode repartition|fail-fast
 *                        chip-fail reaction (default repartition)
 */

#ifndef SGCN_BENCH_BENCH_COMMON_HH
#define SGCN_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "accel/personalities.hh"
#include "accel/runner.hh"
#include "serve/serve.hh"
#include "sim/cli.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/table.hh"
#include "sim/thread_pool.hh"

namespace sgcn::bench
{

/** Options shared by every harness. */
struct BenchOptions
{
    RunOptions run;
    NetworkSpec net;
    double scale = 1.0;
    std::vector<DatasetSpec> datasets;

    static BenchOptions
    fromCli(const Cli &cli)
    {
        BenchOptions options;
        options.run.mode = cli.getString("mode", "fast") == "timing"
                               ? ExecutionMode::Timing
                               : ExecutionMode::Fast;
        options.run.sampledIntermediateLayers =
            static_cast<unsigned>(cli.getInt("sampled", 4));
        options.net.layers =
            static_cast<unsigned>(cli.getInt("layers", 28));
        options.run.jobs = static_cast<unsigned>(
            cli.getInt("jobs", ThreadPool::hardwareJobs()));
        applyPipelineFlag(options.run, cli.has("pipeline"),
                          cli.getString("pipeline", ""));
        options.run.chips =
            static_cast<unsigned>(cli.getInt("chips", 1));
        options.run.partitionPolicy = partitionPolicyByName(
            cli.getString("partition",
                          partitionPolicyName(
                              options.run.partitionPolicy)));
        if (cli.has("link")) {
            options.run.link =
                linkByName(cli.getString("link", "pcie4"));
        }
        options.run.faults =
            FaultPlan::parse(cli.getString("faults", "")).orFatal();
        options.run.degradedMode =
            parseDegradedMode(
                cli.getString("degraded-mode",
                              degradedModeName(options.run.degradedMode)))
                .orFatal();
        options.scale = cli.scale();

        const std::string list = cli.getString("datasets", "");
        if (list.empty()) {
            options.datasets = datasetsBySparsity();
        } else {
            std::stringstream stream(list);
            std::string abbrev;
            while (std::getline(stream, abbrev, ','))
                options.datasets.push_back(datasetByAbbrev(abbrev));
        }
        return options;
    }
};

/** ServeOptions from the shared serving flags (--rate, --requests,
 *  --batch-max, --linger, --arrival poisson|fixed, --hops, --fanout,
 *  --serve-seed), defaulting like `sgcn_sim serve`. */
inline ServeOptions
serveOptionsFromCli(const Cli &cli)
{
    ServeOptions serve;
    serve.offeredQps = cli.getDouble("rate", serve.offeredQps);
    serve.requests = static_cast<unsigned>(
        cli.getInt("requests", serve.requests));
    serve.maxBatch = static_cast<unsigned>(
        cli.getInt("batch-max", serve.maxBatch));
    serve.maxLingerCycles = static_cast<Cycle>(cli.getInt(
        "linger", static_cast<std::int64_t>(serve.maxLingerCycles)));
    serve.sample.hops = static_cast<unsigned>(
        cli.getInt("hops", serve.sample.hops));
    serve.sample.fanout = static_cast<unsigned>(
        cli.getInt("fanout", serve.sample.fanout));
    serve.sample.seed = static_cast<std::uint64_t>(cli.getInt(
        "serve-seed", static_cast<std::int64_t>(serve.sample.seed)));
    const std::string arrival = cli.getString("arrival", "poisson");
    if (arrival == "fixed")
        serve.poisson = false;
    else if (arrival != "poisson")
        fatal("bad --arrival '", arrival,
              "' (expected poisson|fixed)");
    return serve;
}

/** Print the standard harness banner. */
inline void
banner(const char *figure, const BenchOptions &options)
{
    std::printf("SGCN reproduction — %s\n", figure);
    std::printf("mode=%s layers=%u sampled=%u scale=%.2f "
                "(vertex cap %u) jobs=%u pipeline=%s\n\n",
                options.run.mode == ExecutionMode::Timing ? "timing"
                                                          : "fast",
                options.net.layers,
                options.run.sampledIntermediateLayers, options.scale,
                static_cast<unsigned>(
                    static_cast<double>(kDatasetVertexCap) *
                    options.scale),
                ThreadPool::resolveJobs(options.run.jobs),
                options.run.pipelined()
                    ? (options.run.tileOverlap ? "tile" : "layer")
                    : "off");
    if (options.run.chips > 1) {
        std::printf("chips=%u partition=%s link=%s\n\n",
                    options.run.chips,
                    partitionPolicyName(options.run.partitionPolicy),
                    options.run.link.name);
    }
    if (options.run.faults.active()) {
        std::printf("faults=%s degraded-mode=%s\n\n",
                    options.run.faults.canonical().c_str(),
                    degradedModeName(options.run.degradedMode));
    }
}

/** One-line graph provenance: generation/build wall time plus the
 *  CSR memory the run will carry (packed adjacency bytes/edge). */
inline void
graphLine(const Dataset &dataset)
{
    std::printf("  %s graph: %u vertices, %llu edges | "
                "built %.0f ms | %.1f MB CSR | %.2f B/edge\n",
                dataset.spec.abbrev, dataset.graph.numVertices(),
                static_cast<unsigned long long>(
                    dataset.graph.numEdges()),
                dataset.buildMillis,
                static_cast<double>(
                    dataset.graph.footprintBytes()) /
                    1e6,
                dataset.graph.adjacencyBytesPerEdge());
}

/** Index of the personality named @p name, for pulling a baseline
 *  run back out of an input-ordered runAll result vector. */
inline std::size_t
personalityIndex(const std::vector<AccelConfig> &configs,
                 const std::string &name)
{
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (configs[i].name == name)
            return i;
    }
    fatal("no personality named ", name, " in the sweep set");
}

} // namespace sgcn::bench

#endif // SGCN_BENCH_BENCH_COMMON_HH
