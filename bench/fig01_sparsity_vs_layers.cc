/**
 * @file
 * Fig. 1: average intermediate feature sparsity vs network depth for
 * traditional GCNs and modern residual GCNs (DeepGCN / DeeperGCN /
 * GNN1000 territory), on Cora / CiteSeer / PubMed.
 *
 * Paper anchors: traditional GCNs stay below ~20-30%; residual
 * networks start above 50% and rise to ~70% towards 100-1000
 * layers.
 */

#include "bench_common.hh"
#include "gcn/sparsity_model.hh"

using namespace sgcn;
using namespace sgcn::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseFlagsOrExit(Cli(argc, argv), {.groups = kHarnessFlags});
    banner("Fig. 1 — sparsity vs number of layers", options);

    const unsigned depths[] = {1,  2,  3,   5,   7,   14,  28,
                               56, 112, 224, 448, 1000};
    const char *abbrevs[] = {"CR", "CS", "PM"};

    Table table("Fig. 1: average intermediate sparsity (%)");
    table.header({"#layers", "CR trad", "CS trad", "PM trad",
                  "CR resid", "CS resid", "PM resid"});
    for (unsigned depth : depths) {
        std::vector<std::string> row{std::to_string(depth)};
        for (bool residual : {false, true}) {
            for (const char *abbrev : abbrevs) {
                const DatasetSpec &spec = datasetByAbbrev(abbrev);
                row.push_back(Table::num(
                    100.0 * modeledAvgSparsity(spec, depth, residual),
                    1));
            }
        }
        table.row(row);
    }
    table.print();

    std::printf("\npaper: traditional GCNs stay at 5-30%% and stop "
                "converging beyond ~5 layers;\n"
                "       residual GCNs exceed 50%% even shallow and "
                "approach ~70%% by hundreds of layers.\n");
    return 0;
}
