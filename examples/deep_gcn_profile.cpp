/**
 * @file
 * Layer-by-layer profile of a deep residual GCN on SGCN: per-layer
 * sparsity (the Fig. 2b curve), cycles, off-chip traffic, and cache
 * hit rate, including the special input layer. Shows how the
 * compressed-feature benefit tracks the sparsity profile.
 *
 * Usage: deep_gcn_profile [--dataset PM] [--layers 28]
 *                         [--mode fast|timing]
 */

#include <cstdio>

#include "accel/layer_engine.hh"
#include "accel/personalities.hh"
#include "accel/workload.hh"
#include "cli/flags.hh"
#include "sim/table.hh"

using namespace sgcn;

int
main(int argc, char **argv)
{
    const BenchOptions options = parseFlagsOrExit(
        Cli(argc, argv),
        {.groups = kRunFlags | kScaleFlag | kDatasetFlags,
         .datasets = {datasetByAbbrev("PM")},
         .oneDataset = true});
    const NetworkSpec &net = options.net;
    const ExecutionMode mode = options.run.mode;

    const Dataset dataset =
        instantiateDataset(options.datasets.front(), options.scale);
    const AccelConfig sgcn = makeSgcn();
    const AccelConfig gcnax = makeGcnax();

    std::printf("dataset %s (%u vertices), %u-layer residual GCN, "
                "SGCN vs GCNAX per layer\n\n",
                dataset.spec.name, dataset.graph.numVertices(),
                net.layers);

    Table table("per-layer profile");
    table.header({"layer", "sparsity", "SGCN Mcycles", "GCNAX Mcycles",
                  "speedup", "SGCN MB", "GCNAX MB", "SGCN hit",
                  "agg share"});

    auto profile_layer = [&](const char *label, LayerContext &&a,
                             LayerContext &&b, double sparsity) {
        LayerEngine sgcn_engine(sgcn, a);
        const LayerResult ours = sgcn_engine.run(mode);
        LayerEngine gcnax_engine(gcnax, b);
        const LayerResult ref = gcnax_engine.run(mode);
        table.row(
            {label, Table::percent(sparsity),
             Table::num(static_cast<double>(ours.cycles) / 1e6, 3),
             Table::num(static_cast<double>(ref.cycles) / 1e6, 3),
             Table::ratio(static_cast<double>(ref.cycles) /
                          static_cast<double>(ours.cycles)),
             Table::num(ours.traffic.totalBytes() / 1e6, 1),
             Table::num(ref.traffic.totalBytes() / 1e6, 1),
             Table::percent(ours.cacheAccesses
                                ? static_cast<double>(ours.cacheHits) /
                                      ours.cacheAccesses
                                : 0.0),
             Table::percent(static_cast<double>(ours.aggCycles) /
                            std::max<Cycle>(1, ours.cycles))});
    };

    profile_layer("input",
                  makeInputLayer(dataset, dataset.graph, sgcn, net),
                  makeInputLayer(dataset, dataset.graph, gcnax, net),
                  dataset.spec.inputSparsity);

    for (unsigned layer = 1; layer < net.layers;
         layer += std::max(1u, (net.layers - 1) / 9)) {
        LayerContext a = makeIntermediateLayer(dataset, dataset.graph,
                                               sgcn, net, layer);
        const double sparsity = a.inSparsity;
        profile_layer(("L" + std::to_string(layer)).c_str(),
                      std::move(a),
                      makeIntermediateLayer(dataset, dataset.graph,
                                            gcnax, net, layer),
                      sparsity);
    }
    table.print();

    std::printf("\nthe speedup tracks the per-layer sparsity curve "
                "(Fig. 2b): sparser layers compress better.\n");
    return 0;
}
