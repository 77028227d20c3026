/**
 * @file
 * Fig. 2: (a) average intermediate sparsity of 3/5-layer traditional
 * vs 3/5/28-layer residual GCNs per dataset; (b) per-layer sparsity
 * of the 28-layer residual network.
 *
 * Paper anchors: residual lifts even 3-layer networks over 50%; the
 * 28-layer profile spans roughly 45-75%, rising towards the output.
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
    banner("Fig. 2 — residual effect and per-layer profile", options);

    Table fig2a("Fig. 2a: average sparsity (%), traditional vs "
                "residual");
    fig2a.header({"dataset", "trad-3", "trad-5", "resid-3", "resid-5",
                  "resid-28", "paper-28 (Table II)"});
    for (const auto &spec : allDatasets()) {
        fig2a.row({spec.abbrev,
                   Table::num(100 * modeledAvgSparsity(spec, 3, false),
                              1),
                   Table::num(100 * modeledAvgSparsity(spec, 5, false),
                              1),
                   Table::num(100 * modeledAvgSparsity(spec, 3, true),
                              1),
                   Table::num(100 * modeledAvgSparsity(spec, 5, true),
                              1),
                   Table::num(100 * modeledAvgSparsity(spec, 28, true),
                              1),
                   Table::num(100 * spec.featureSparsity28, 1)});
    }
    fig2a.print();
    std::printf("\n");

    NetworkSpec net;
    net.layers = 28;
    Table fig2b("Fig. 2b: per-layer intermediate sparsity (%), "
                "28-layer residual");
    std::vector<std::string> header{"layer"};
    for (const auto &spec : allDatasets())
        header.push_back(spec.abbrev);
    fig2b.header(header);
    std::vector<std::vector<double>> profiles;
    for (const auto &spec : allDatasets())
        profiles.push_back(sparsityProfile(spec, net));
    for (unsigned layer = 0; layer + 1 < net.layers; ++layer) {
        std::vector<std::string> row{std::to_string(layer + 1)};
        for (const auto &profile : profiles)
            row.push_back(Table::num(100 * profile[layer], 1));
        fig2b.row(row);
    }
    fig2b.print();

    std::printf("\npaper: profiles span ~45-75%%, generally rising "
                "towards the output layer.\n");
    return 0;
}
