/**
 * @file
 * Shared helpers for the figure/table regeneration harnesses.
 *
 * Every harness reads its flags through parseFlagsOrExit, whose table
 * in src/cli/flags.cc lists each flag with its group, type and
 * minimum: the run and scale groups, the dataset group
 * (--datasets CR,CS,...) unless the harness fixes its own datasets,
 * and fig21's serve group. Any other flag exits 2 with the accepted
 * list, a bad value exits 1, both before a dataset is built.
 */

#ifndef SGCN_BENCH_BENCH_COMMON_HH
#define SGCN_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "accel/personalities.hh"
#include "cli/flags.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/table.hh"
#include "sim/thread_pool.hh"

namespace sgcn::bench
{

/** The groups every harness takes. */
constexpr unsigned kHarnessFlags = kRunFlags | kScaleFlag;

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
