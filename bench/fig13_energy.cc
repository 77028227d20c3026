/**
 * @file
 * Fig. 13: dynamic energy breakdown (compute / cache / DRAM)
 * normalized to GCNAX, plus peak power (TDP), for GCNAX, HyGCN,
 * AWB-GCN, and SGCN on the nine datasets.
 *
 * Paper anchors: SGCN consumes 44.1% less energy than GCNAX, 44.6%
 * less than AWB-GCN, 58.1% less than HyGCN; TDPs: HyGCN 5.94 W,
 * SGCN 6.74 W, AWB-GCN 7.03 W, GCNAX 7.16 W; DRAM dominates the
 * breakdown.
 */

#include "bench_common.hh"

using namespace sgcn;
using namespace sgcn::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options = parseFlagsOrExit(
        Cli(argc, argv), {.groups = kHarnessFlags | kDatasetFlags,
                          .datasets = datasetsBySparsity()});
    banner("Fig. 13 — energy consumption breakdown", options);

    const AccelConfig configs[] = {makeGcnax(), makeHygcn(),
                                   makeAwbGcn(), makeSgcn()};

    Table table("Fig. 13: energy normalized to GCNAX "
                "(compute/cache/DRAM shares in %)");
    table.header({"dataset", "accel", "norm energy", "compute%",
                  "cache%", "dram%"});

    std::vector<std::vector<double>> normalized(4);
    for (const auto &spec : options.datasets) {
        const Dataset dataset = instantiateDataset(spec, options.scale);
        double baseline_energy = 0.0;
        for (std::size_t i = 0; i < 4; ++i) {
            const RunResult run = runNetwork(configs[i], dataset,
                                             options.net, options.run);
            const double total = run.energy.total();
            if (i == 0)
                baseline_energy = total;
            normalized[i].push_back(total / baseline_energy);
            table.row(
                {spec.abbrev, configs[i].name,
                 Table::num(total / baseline_energy, 2),
                 Table::num(100 * run.energy.computeJ / total, 1),
                 Table::num(100 * run.energy.cacheJ / total, 1),
                 Table::num(100 * run.energy.dramJ / total, 1)});
        }
    }
    table.print();
    std::printf("\n");

    Table summary("geomean energy vs GCNAX, and TDP");
    summary.header({"accel", "norm energy", "TDP (W)",
                    "paper TDP (W)"});
    const char *paper_tdp[] = {"7.16", "5.94", "7.03", "6.74"};
    EnergyModel model;
    for (std::size_t i = 0; i < 4; ++i) {
        AccelDescriptor desc = configs[i].energyDesc;
        desc.cacheKb =
            static_cast<double>(configs[i].cache.sizeBytes) / 1024.0;
        summary.row({configs[i].name,
                     Table::num(geomean(normalized[i]), 2),
                     Table::num(model.tdpWatts(desc), 2),
                     paper_tdp[i]});
    }
    summary.print();

    std::printf("\npaper: SGCN energy 0.56x GCNAX (44.1%% less), "
                "0.55x AWB-GCN, 0.42x HyGCN; DRAM dominates.\n");
    return 0;
}
