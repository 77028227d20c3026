/**
 * @file
 * Design-space exploration: define your own accelerator personality
 * from the configuration knobs and race it against the paper's six.
 *
 * The example builds "SGCN-Lite" (half the engines, half the cache,
 * HBM1 — a low-cost part) and "SGCN-XL" (32 engines, 4 MB cache) and
 * reports performance per watt and per mm2 next to the stock
 * designs.
 *
 * Usage: custom_accelerator [--dataset FK] [--layers 28]
 */

#include <cstdio>

#include "accel/personalities.hh"
#include "accel/report.hh"
#include "cli/flags.hh"
#include "sim/table.hh"

using namespace sgcn;

namespace
{

AccelConfig
makeSgcnLite()
{
    AccelConfig config = makeSgcn();
    config.name = "SGCN-Lite";
    config.aggEngines = 4;
    config.combEngines = 4;
    config.cacheLinesPerCycle = 4;
    config.cache.sizeBytes = 256 * 1024;
    config.dram = DramConfig::hbm1();
    // Half the engines and buffers: roughly half the logic area.
    config.energyDesc.logicAreaMm2 = 2.3;
    config.energyDesc.privateBufferKb = 192.0;
    return config;
}

AccelConfig
makeSgcnXl()
{
    AccelConfig config = makeSgcn();
    config.name = "SGCN-XL";
    config.aggEngines = 32;
    config.combEngines = 32;
    config.cacheLinesPerCycle = 32;
    config.cache.sizeBytes = 4 * 1024 * 1024;
    config.aggPsumBudgetBytes = 6 * 1024 * 1024;
    config.energyDesc.logicAreaMm2 = 14.0;
    config.energyDesc.privateBufferKb = 6144.0;
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions options = parseFlagsOrExit(
        Cli(argc, argv),
        {.groups = kRunFlags | kScaleFlag | kDatasetFlags,
         .datasets = {datasetByAbbrev("FK")},
         .oneDataset = true});

    const Dataset dataset =
        instantiateDataset(options.datasets.front(), options.scale);
    std::printf("design-space exploration on %s (%u vertices)\n\n",
                dataset.spec.name, dataset.graph.numVertices());

    std::vector<AccelConfig> configs = {makeGcnax(), makeSgcn(),
                                        makeSgcnLite(), makeSgcnXl()};
    const auto results =
        runAll(configs, dataset, options.net, options.run);
    const RunResult &baseline = results.front();

    Table table("custom designs vs stock (energy from the shared "
                "model)");
    table.header({"design", "speedup", "TDP W", "area mm2",
                  "perf/W", "perf/mm2", "energy mJ"});
    for (const auto &run : results) {
        const double speedup = speedupOver(baseline, run);
        table.row({run.accelName, Table::ratio(speedup),
                   Table::num(run.tdpWatts, 2),
                   Table::num(run.areaMm2, 2),
                   Table::num(speedup / run.tdpWatts, 3),
                   Table::num(speedup / run.areaMm2, 3),
                   Table::num(run.energy.total() * 1e3, 2)});
    }
    table.print();

    std::printf("\nTakeaway: the knobs in AccelConfig (engines, cache "
                "geometry, formats, tiling,\nSAC, DRAM generation) "
                "compose freely — see src/accel/config.hh.\n");
    return 0;
}
