/**
 * @file
 * Run all six accelerator personalities on one dataset and print a
 * full side-by-side report: cycles, speedup, traffic by class,
 * cache behaviour, compute, energy, peak power, and area.
 *
 * Usage: accelerator_comparison [--dataset DB] [--layers 28]
 *                               [--mode fast|timing] [--sampled 4]
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
         .datasets = {datasetByAbbrev("DB")},
         .oneDataset = true});
    const NetworkSpec &net = options.net;

    const Dataset dataset =
        instantiateDataset(options.datasets.front(), options.scale);
    std::printf("dataset %s: %u vertices, %llu edges, %u-layer "
                "residual GCN\n\n",
                dataset.spec.name, dataset.graph.numVertices(),
                static_cast<unsigned long long>(
                    dataset.graph.numEdges()),
                net.layers);

    const auto results =
        runAll(allPersonalities(), dataset, net, options.run);
    const RunResult *baseline = nullptr;
    for (const auto &run : results) {
        if (run.accelName == "GCNAX")
            baseline = &run;
    }

    Table table("accelerator comparison on " +
                std::string(dataset.spec.abbrev));
    table.header({"accel", "cycles(M)", "speedup", "offchip MB",
                  "topo%", "featIn%", "featOut%", "psum%", "hit rate",
                  "GMACs", "energy mJ", "TDP W", "area mm2"});
    for (const auto &run : results) {
        const double total =
            static_cast<double>(run.total.traffic.totalLines());
        auto pct = [&](TrafficClass cls) {
            return Table::num(
                100.0 * static_cast<double>(
                            run.total.traffic.classLines(cls)) /
                    total,
                0);
        };
        table.row(
            {run.accelName,
             Table::num(static_cast<double>(run.total.cycles) / 1e6,
                        2),
             Table::ratio(speedupOver(*baseline, run)),
             Table::num(run.total.traffic.totalBytes() / 1e6, 1),
             pct(TrafficClass::Topology), pct(TrafficClass::FeatureIn),
             pct(TrafficClass::FeatureOut),
             pct(TrafficClass::PartialSum),
             Table::percent(run.cacheHitRate()),
             Table::num(static_cast<double>(run.total.macs) / 1e9, 2),
             Table::num(run.energy.total() * 1e3, 2),
             Table::num(run.tdpWatts, 2),
             Table::num(run.areaMm2, 2)});
    }
    table.print();
    return 0;
}
