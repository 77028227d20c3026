/**
 * @file
 * Fig. 16: performance on the GINConv and GraphSAGE aggregation
 * variants.
 *
 * Paper anchors: GINConv drops edge weights, shrinking the topology
 * share and slightly raising SGCN's speedup (1.69x over GCNAX);
 * GraphSAGE samples edges, shrinking the aggregation share and
 * lowering it (1.53x); both keep SGCN clearly ahead (2.57x / 2.27x
 * over HyGCN).
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
    banner("Fig. 16 — GINConv and GraphSAGE", options);

    const auto personalities = allPersonalities();

    for (AggKind kind : {AggKind::Gin, AggKind::Sage}) {
        NetworkSpec net = options.net;
        net.agg = kind;

        Table table(std::string("Fig. 16: speedup over GCNAX — ") +
                    aggKindName(kind));
        std::vector<std::string> header{"dataset"};
        for (const auto &config : personalities)
            header.push_back(config.name);
        table.header(header);

        std::vector<std::vector<double>> speedups(personalities.size());
        for (const auto &spec : options.datasets) {
            const Dataset dataset =
                instantiateDataset(spec, options.scale);
            const RunResult baseline = runNetwork(
                personalityByName("GCNAX"), dataset, net, options.run);
            std::vector<std::string> row{spec.abbrev};
            for (std::size_t p = 0; p < personalities.size(); ++p) {
                const RunResult run = runNetwork(
                    personalities[p], dataset, net, options.run);
                const double speedup = speedupOver(baseline, run);
                speedups[p].push_back(speedup);
                row.push_back(Table::num(speedup, 2));
            }
            table.row(row);
        }
        std::vector<std::string> geo{"Geomean"};
        for (const auto &series : speedups)
            geo.push_back(Table::num(geomean(series), 2));
        table.row(geo);
        table.print();
        std::printf("\n");
    }

    std::printf("paper: GINConv 1.69x / GraphSAGE 1.53x over GCNAX "
                "(vanilla GCN: 1.66x);\n"
                "       2.57x / 2.27x over HyGCN.\n");
    return 0;
}
