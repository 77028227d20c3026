/**
 * @file
 * sgcn_sim: command-line front end for the simulator.
 *
 * Subcommands:
 *   run       simulate accelerators on a dataset, print/export results
 *   serve     drive a serving trace (open-loop arrivals, batching)
 *   sweep     sweep one knob (cache, engines, layers, slice) over runs
 *   describe  print a personality's Table-III-style configuration
 *   datasets  list the Table II registry and instantiated statistics
 *   generate  write a synthetic dataset graph to an edge-list file
 *
 * Examples:
 *   sgcn_sim run --dataset PM --accels SGCN,GCNAX --mode timing
 *   sgcn_sim run --dataset RD --csv out.csv
 *   sgcn_sim run --edge-list mygraph.txt --accels SGCN
 *   sgcn_sim serve --dataset CR --rate 2000 --requests 256
 *   sgcn_sim sweep --knob cache --dataset PM
 *   sgcn_sim describe --accel SGCN
 *   sgcn_sim generate --dataset DB --out dblp.edges
 */

#include <cstdio>
#include <sstream>

#include "accel/personalities.hh"
#include "accel/report.hh"
#include "cli/flags.hh"
#include "gcn/sparsity_model.hh"
#include "graph/io.hh"
#include "sim/table.hh"
#include "sim/thread_pool.hh"

using namespace sgcn;

namespace
{

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream stream(list);
    std::string item;
    while (std::getline(stream, item, ','))
        out.push_back(item);
    return out;
}

/** The --edge-list graph if one is given, else the dataset flag's. */
Dataset
datasetFromCli(const Cli &cli, const BenchOptions &options)
{
    const std::string edge_list = cli.getString("edge-list", "");
    if (edge_list.empty()) {
        return instantiateDataset(options.datasets.front(),
                                  options.scale);
    }
    const unsigned width = countFlag(cli, "input-width", 512, 1).orFatal();
    // User-provided topology; synthesize the rest of the spec.
    Dataset dataset{datasetByAbbrev("CR"),
                    loadEdgeList(edge_list).orFatal(), 0, 1.0};
    dataset.spec.name = "user-graph";
    dataset.spec.abbrev = "UG";
    dataset.inputWidth = width;
    return dataset;
}

/** The --accels personalities with --cache-kb, --engines and --dram
 *  applied; a bad value exits 1. */
std::vector<AccelConfig>
configsFromCli(const Cli &cli)
{
    const std::string dram = cli.getString("dram", "hbm2");
    if (dram != "hbm1" && dram != "hbm2")
        fatal("--dram: '", dram, "' is not one of hbm1|hbm2");
    std::vector<AccelConfig> configs;
    for (const std::string &name :
         splitCommas(cli.getString("accels", "GCNAX,SGCN"))) {
        AccelConfig config = personalityByName(name);
        const auto size_kb =
            static_cast<unsigned>(config.cache.sizeBytes / 1024);
        const unsigned kb = countFlag(cli, "cache-kb", size_kb, 1).orFatal();
        config.cache.sizeBytes = std::uint64_t{kb} * 1024;
        // The cache indexes its sets by mask and shift.
        if (!isPowerOfTwo(config.cache.numSets())) {
            fatal("--cache-kb: ", kb, " gives ", config.cache.numSets(),
                  " sets of ", config.cache.ways,
                  " 64-B lines; the set count must be a power of two");
        }
        config.aggEngines =
            countFlag(cli, "engines", config.aggEngines, 1).orFatal();
        config.combEngines = config.aggEngines;
        if (dram == "hbm1")
            config.dram = DramConfig::hbm1();
        configs.push_back(std::move(config));
    }
    return configs;
}

/** The --stats dump and --csv export of run and serve. */
void
printStatsAndCsv(const Cli &cli, const std::vector<RunResult> &results)
{
    if (cli.has("stats")) {
        for (const auto &run : results) {
            std::printf("\n[%s/%s]\n", run.accelName.c_str(),
                        run.datasetAbbrev.c_str());
            std::fputs(runResultStats(run).dump("  ").c_str(), stdout);
        }
    }
    const std::string csv = cli.getString("csv", "");
    if (!csv.empty()) {
        writeRunsCsv(results, csv);
        std::printf("\nwrote %s\n", csv.c_str());
    }
}

int
cmdRun(const Cli &cli, const BenchOptions &options)
{
    const std::vector<AccelConfig> configs = configsFromCli(cli);
    const Dataset dataset = datasetFromCli(cli, options);
    const NetworkSpec &net = options.net;
    const RunOptions &opts = options.run;

    std::printf("%s: %u vertices, %llu edges | %u-layer %s\n",
                dataset.spec.name, dataset.graph.numVertices(),
                static_cast<unsigned long long>(
                    dataset.graph.numEdges()),
                net.layers, aggKindName(net.agg));
    std::printf("graph: built in %.0f ms | %.1f MB CSR | "
                "%.2f B/edge adjacency\n\n",
                dataset.buildMillis,
                static_cast<double>(
                    dataset.graph.footprintBytes()) /
                    1e6,
                dataset.graph.adjacencyBytesPerEdge());
    if (opts.faults.active()) {
        // The canonical spec is the replay handle: feed it back via
        // --faults to reproduce this exact fault timeline.
        std::printf("faults: %s (degraded-mode %s)\n\n",
                    opts.faults.canonical().c_str(),
                    degradedModeName(opts.degradedMode));
    }

    Expected<std::vector<RunResult>> maybe_results =
        tryRunAll(configs, dataset, net, opts);
    if (!maybe_results.ok()) {
        std::fprintf(stderr, "sgcn_sim: %s\n",
                     maybe_results.error().message.c_str());
        return 1;
    }
    const std::vector<RunResult> results =
        std::move(maybe_results.value());

    Table table("results");
    table.header({"accel", "cycles", "offchip MB", "hit rate",
                  "GMACs", "energy mJ", "bw util"});
    for (const auto &run : results) {
        table.row({run.accelName,
                   std::to_string(run.total.cycles),
                   Table::num(run.total.traffic.totalBytes() / 1e6, 1),
                   Table::percent(run.cacheHitRate()),
                   Table::num(static_cast<double>(run.total.macs) / 1e9,
                              2),
                   Table::num(run.energy.total() * 1e3, 2),
                   Table::percent(run.total.bwUtil)});
    }
    table.print();

    if (opts.pipelined()) {
        std::printf("\n");
        for (const auto &run : results) {
            std::printf("%s\n",
                        pipelineSummaryLine(run).c_str());
        }
    }
    if (opts.chips > 1) {
        std::printf("\n");
        for (const auto &run : results)
            std::printf("%s\n", shardSummaryLine(run).c_str());
    }
    if (opts.faults.active()) {
        std::printf("\n");
        for (const auto &run : results)
            std::printf("%s\n", faultSummaryLine(run).c_str());
    }

    printStatsAndCsv(cli, results);
    const std::string sched_csv = cli.getString("export-schedule", "");
    if (!sched_csv.empty()) {
        // Mirror the runner's sampling so the exported rows carry
        // the architectural layer indices they were simulated as.
        std::vector<unsigned> arch_layers;
        for (unsigned idx : sampleLayerIndices(
                 net.layers - 1, opts.sampledIntermediateLayers)) {
            arch_layers.push_back(idx + 1);
        }
        writeSchedulesCsv(results, arch_layers, sched_csv);
        std::printf("\nwrote %s\n", sched_csv.c_str());
    }
    return 0;
}

int
cmdServe(const Cli &cli, const BenchOptions &options)
{
    const std::vector<AccelConfig> configs = configsFromCli(cli);
    const Dataset dataset = datasetFromCli(cli, options);
    const RunOptions &opts = options.run;
    const ServeOptions &serve = options.serve;
    // The per-trace seed also keys the cached SAGE edge fractions,
    // so two serve traces with different seeds never share one.
    NetworkSpec net = options.net;
    net.sageSeed = serve.sample.seed;

    std::printf("%s: %u vertices, %llu edges | %u-layer %s | "
                "serving %u requests (%s @ %.0f qps, batch<=%u, "
                "linger %llu cycles, %u-hop fanout %u)\n\n",
                dataset.spec.name, dataset.graph.numVertices(),
                static_cast<unsigned long long>(
                    dataset.graph.numEdges()),
                net.layers, aggKindName(net.agg), serve.requests,
                serve.poisson ? "poisson" : "fixed",
                serve.offeredQps, serve.maxBatch,
                static_cast<unsigned long long>(
                    serve.maxLingerCycles),
                serve.sample.hops, serve.sample.fanout);
    if (opts.faults.active()) {
        std::printf("faults: %s (degraded-mode %s, re-seeded per "
                    "batch)\n\n",
                    opts.faults.canonical().c_str(),
                    degradedModeName(opts.degradedMode));
    }

    Expected<std::vector<RunResult>> maybe_results =
        tryServeAll(configs, dataset, net, opts, serve);
    if (!maybe_results.ok()) {
        std::fprintf(stderr, "sgcn_sim: %s\n",
                     maybe_results.error().message.c_str());
        return 1;
    }
    const std::vector<RunResult> results =
        std::move(maybe_results.value());

    Table table("serving trace");
    table.header({"accel", "p50 us", "p95 us", "p99 us",
                  "sustained qps", "batches", "mean batch",
                  "peak"});
    const double us = kServeClockHz / 1.0e6; // cycles per microsecond
    for (const auto &run : results) {
        const ServeStats &s = run.serve;
        table.row({run.accelName,
                   Table::num(static_cast<double>(s.p50Cycles) / us, 1),
                   Table::num(static_cast<double>(s.p95Cycles) / us, 1),
                   Table::num(static_cast<double>(s.p99Cycles) / us, 1),
                   Table::num(s.sustainedQps, 0),
                   std::to_string(s.batches),
                   Table::num(s.meanOccupancy, 2),
                   std::to_string(s.peakOccupancy)});
    }
    table.print();

    std::printf("\n");
    for (const auto &run : results)
        std::printf("%s\n", serveSummaryLine(run).c_str());
    if (opts.faults.active()) {
        std::printf("\n");
        for (const auto &run : results)
            std::printf("%s\n", faultSummaryLine(run).c_str());
    }

    printStatsAndCsv(cli, results);
    return 0;
}

int
cmdSweep(const Cli &cli, const BenchOptions &options)
{
    const NetworkSpec &base_net = options.net;
    const RunOptions &opts = options.run;
    const std::string knob = cli.getString("knob", "cache");

    // Queue the whole (knob value x accelerator) product, then fan
    // it out in one parallelFor so --jobs N uses the full pool
    // instead of two-wide pairs; rows are emitted from the
    // input-ordered result vector afterwards.
    struct SweepCell
    {
        AccelConfig config;
        NetworkSpec net;
    };
    std::vector<SweepCell> cells;
    std::vector<std::string> labels;
    auto queue_pair = [&](const AccelConfig &gcnax,
                          const AccelConfig &sgcn,
                          const NetworkSpec &net,
                          const std::string &label) {
        cells.push_back({gcnax, net});
        cells.push_back({sgcn, net});
        labels.push_back(label);
    };

    if (knob == "cache") {
        for (std::uint64_t kb : {256u, 512u, 1024u, 2048u, 4096u}) {
            AccelConfig gcnax = makeGcnax();
            AccelConfig sgcn = makeSgcn();
            gcnax.cache.sizeBytes = kb * 1024;
            sgcn.cache.sizeBytes = kb * 1024;
            queue_pair(gcnax, sgcn, base_net,
                       std::to_string(kb) + "KB");
        }
    } else if (knob == "engines") {
        for (unsigned engines : {1u, 2u, 4u, 8u, 16u, 32u}) {
            AccelConfig gcnax = makeGcnax();
            AccelConfig sgcn = makeSgcn();
            for (AccelConfig *config : {&gcnax, &sgcn}) {
                config->aggEngines = engines;
                config->combEngines = engines;
                config->cacheLinesPerCycle = engines;
            }
            queue_pair(gcnax, sgcn, base_net,
                       std::to_string(engines));
        }
    } else if (knob == "layers") {
        for (unsigned layers : {7u, 14u, 28u, 56u, 112u}) {
            NetworkSpec net = base_net;
            net.layers = layers;
            queue_pair(makeGcnax(), makeSgcn(), net,
                       std::to_string(layers));
        }
    } else if (knob == "slice") {
        for (std::uint32_t c : {32u, 64u, 96u, 128u, 256u}) {
            AccelConfig sgcn = makeSgcn();
            sgcn.sliceC = c;
            queue_pair(makeGcnax(), sgcn, base_net,
                       "C=" + std::to_string(c));
        }
    } else {
        fatal("unknown --knob: ", knob,
              " (cache|engines|layers|slice)");
    }

    // Built after the knob is known good: a bad value exits first.
    const Dataset dataset = datasetFromCli(cli, options);
    Table table("sweep: " + knob + " on " +
                std::string(dataset.spec.abbrev));
    table.header({knob, "GCNAX cycles", "SGCN cycles", "speedup"});

    std::vector<RunResult> runs(cells.size());
    parallelFor(opts.jobs, cells.size(), [&](std::size_t i) {
        runs[i] = runNetwork(cells[i].config, dataset, cells[i].net,
                             opts);
    });
    for (std::size_t k = 0; k < labels.size(); ++k) {
        const RunResult &a = runs[2 * k];
        const RunResult &b = runs[2 * k + 1];
        table.row({labels[k], std::to_string(a.total.cycles),
                   std::to_string(b.total.cycles),
                   Table::ratio(speedupOver(a, b))});
    }
    table.print();
    return 0;
}

int
cmdDescribe(const Cli &cli, const BenchOptions &)
{
    const std::string name = cli.getString("accel", "SGCN");
    std::fputs(personalityByName(name).describe().c_str(), stdout);
    return 0;
}

int
cmdDatasets(const Cli &, const BenchOptions &options)
{
    Table table("Table II registry");
    table.header({"abbrev", "name", "full |V|", "full |E|", "width",
                  "sparsity@28", "inst |V|", "inst |E|"});
    for (const auto &spec : allDatasets()) {
        const Dataset dataset = instantiateDataset(spec, options.scale);
        table.row({spec.abbrev, spec.name,
                   std::to_string(spec.fullVertices),
                   std::to_string(spec.fullEdges),
                   std::to_string(spec.inputFeatures),
                   Table::percent(spec.featureSparsity28),
                   std::to_string(dataset.graph.numVertices()),
                   std::to_string(
                       dataset.graph.numEdgesNoSelfLoops())});
    }
    table.print();
    return 0;
}

int
cmdGenerate(const Cli &cli, const BenchOptions &options)
{
    const Dataset dataset = datasetFromCli(cli, options);
    const std::string out =
        cli.getString("out", std::string(dataset.spec.abbrev) +
                                 ".edges");
    saveEdgeList(dataset.graph, out).orFatal();
    std::printf("wrote %s: %u vertices, %llu directed edges\n",
                out.c_str(), dataset.graph.numVertices(),
                static_cast<unsigned long long>(
                    dataset.graph.numEdgesNoSelfLoops()));
    return 0;
}

/** A subcommand: the shared flag groups it takes and the flags it
 *  reads itself. */
struct Command
{
    const char *name;
    unsigned groups;
    std::vector<std::string> extras;
    int (*run)(const Cli &, const BenchOptions &);
};

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv);
    const unsigned graph = kRunFlags | kScaleFlag | kDatasetFlags;
    const Command commands[] = {
        {"run", graph,
         {"accels", "cache-kb", "engines", "dram", "csv", "stats",
          "export-schedule", "edge-list", "input-width"},
         cmdRun},
        {"serve", graph | kServeFlags,
         {"accels", "cache-kb", "engines", "dram", "csv", "stats",
          "edge-list", "input-width"},
         cmdServe},
        {"sweep", graph, {"knob", "edge-list", "input-width"}, cmdSweep},
        {"describe", 0, {"accel"}, cmdDescribe},
        {"datasets", kScaleFlag, {}, cmdDatasets},
        {"generate", graph, {"out", "edge-list", "input-width"},
         cmdGenerate},
    };
    const std::string name =
        cli.positional().size() == 1 ? cli.positional().front() : "";
    for (const Command &command : commands) {
        if (name != command.name)
            continue;
        const BenchOptions options = parseFlagsOrExit(
            cli,
            {.groups = command.groups,
             .datasets = {datasetByAbbrev("CR")},
             .extras = command.extras,
             .oneDataset = true},
            "sgcn_sim " + name);
        return command.run(cli, options);
    }
    if (!name.empty())
        std::fprintf(stderr, "sgcn_sim: unknown command '%s'\n",
                     name.c_str());
    std::fputs("usage: sgcn_sim <run|serve|sweep|describe|datasets|"
               "generate> [flags]\n(an unknown flag lists a command's "
               "flags)\n",
               stderr);
    return 2;
}
