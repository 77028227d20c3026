/**
 * @file
 * Quickstart: simulate a deep residual GCN on the SGCN accelerator
 * and print what the library gives you — cycles, off-chip traffic
 * by class, cache behaviour, and energy.
 *
 * Usage: quickstart [--dataset CR] [--layers 28] [--mode fast|timing]
 */

#include <cstdio>

#include "accel/personalities.hh"
#include "cli/flags.hh"
#include "sim/table.hh"

using namespace sgcn;

int
main(int argc, char **argv)
{
    const BenchOptions options = parseFlagsOrExit(
        Cli(argc, argv),
        {.groups = kRunFlags | kScaleFlag | kDatasetFlags,
         .datasets = {datasetByAbbrev("CR")},
         .oneDataset = true});

    // 1. Instantiate a dataset stand-in (Table II statistics).
    const DatasetSpec &spec = options.datasets.front();
    Dataset dataset = instantiateDataset(spec, options.scale);
    std::printf("dataset %s: %u vertices, %llu edges, avg degree %.1f, "
                "input width %u\n",
                spec.name, dataset.graph.numVertices(),
                static_cast<unsigned long long>(
                    dataset.graph.numEdges()),
                dataset.graph.avgDegree(), dataset.inputWidth);

    // 2. Describe the network (28-layer residual GCN by default).
    const NetworkSpec &net = options.net;

    // 3. Pick accelerators and run.
    const AccelConfig sgcn_config = makeSgcn();
    const AccelConfig baseline = makeGcnax();
    std::printf("\n%s\n", sgcn_config.describe().c_str());

    const RunResult ours =
        runNetwork(sgcn_config, dataset, net, options.run);
    const RunResult ref = runNetwork(baseline, dataset, net, options.run);

    // 4. Report.
    Table table("quickstart: " + std::string(spec.name) + ", " +
                std::to_string(net.layers) + " layers");
    table.header({"metric", "GCNAX", "SGCN"});
    table.row({"cycles", Table::num(ref.total.cycles, 0),
               Table::num(ours.total.cycles, 0)});
    table.row({"speedup vs GCNAX", "1.00x",
               Table::ratio(speedupOver(ref, ours))});
    table.row({"off-chip MB",
               Table::num(ref.total.traffic.totalBytes() / 1.0e6, 1),
               Table::num(ours.total.traffic.totalBytes() / 1.0e6, 1)});
    table.row({"cache hit rate", Table::percent(ref.cacheHitRate()),
               Table::percent(ours.cacheHitRate())});
    table.row({"energy (mJ)", Table::num(ref.energy.total() * 1e3, 2),
               Table::num(ours.energy.total() * 1e3, 2)});
    table.row({"TDP (W)", Table::num(ref.tdpWatts, 2),
               Table::num(ours.tdpWatts, 2)});
    table.print();

    Table breakdown("off-chip traffic by class (lines)");
    breakdown.header({"class", "GCNAX", "SGCN"});
    for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
        const auto cls = static_cast<TrafficClass>(c);
        breakdown.row(
            {trafficClassName(cls),
             Table::num(static_cast<double>(
                            ref.total.traffic.classLines(cls)), 0),
             Table::num(static_cast<double>(
                            ours.total.traffic.classLines(cls)), 0)});
    }
    breakdown.print();
    return 0;
}
