/**
 * @file
 * Fig. 12: ablation — GCNAX baseline, non-sliced BEICSR, sliced
 * BEICSR, and BEICSR + sparsity-aware cooperation (full SGCN).
 *
 * Paper anchors: non-sliced BEICSR +20.8% geomean, sliced BEICSR
 * +38.5%, +SAC 1.66x total; SAC helps most on clustered topologies
 * (DB) and high neighbour similarity (PM, RD).
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
    banner("Fig. 12 — ablation study", options);

    // "The non-sliced version of BEICSR is already enough to exploit
    // the intermediate feature sparsity, but settles at suboptimal
    // dataflow due to the lack of feature matrix slicing" (SVI-B):
    // without fixed-size slices the offline 2-D tiling analysis does
    // not apply, so the accelerator falls back to untiled sweeps.
    AccelConfig non_sliced = makeSgcn();
    non_sliced.name = "NonSliced";
    non_sliced.format = FormatKind::BeicsrNonSliced;
    non_sliced.sac = false;
    non_sliced.topologyTiling = false;

    AccelConfig sliced = makeSgcn();
    sliced.name = "BEICSR";
    sliced.sac = false;

    const AccelConfig variants[] = {makeGcnax(), non_sliced, sliced,
                                    makeSgcn()};

    Table table("Fig. 12: speedup over GCNAX baseline");
    table.header({"dataset", "Baseline", "Non-sliced BEICSR", "BEICSR",
                  "BEICSR+SAC (SGCN)"});

    std::vector<std::vector<double>> speedups(4);
    for (const auto &spec : options.datasets) {
        const Dataset dataset = instantiateDataset(spec, options.scale);
        std::vector<RunResult> runs;
        for (const auto &config : variants)
            runs.push_back(
                runNetwork(config, dataset, options.net, options.run));
        std::vector<std::string> row{spec.abbrev};
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const double speedup = speedupOver(runs[0], runs[i]);
            speedups[i].push_back(speedup);
            row.push_back(Table::num(speedup, 2));
        }
        table.row(row);
    }
    std::vector<std::string> geo{"Geomean"};
    for (const auto &series : speedups)
        geo.push_back(Table::num(geomean(series), 2));
    table.row(geo);
    table.print();

    std::printf("\npaper: non-sliced +20.8%%, sliced +38.5%%, +SAC "
                "overall 1.66x (geomean).\n");
    return 0;
}
