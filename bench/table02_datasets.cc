/**
 * @file
 * Table II: benchmark dataset information — paper statistics next to
 * the synthetic stand-ins this reproduction instantiates.
 */

#include "bench_common.hh"

using namespace sgcn;
using namespace sgcn::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseFlagsOrExit(Cli(argc, argv), {.groups = kHarnessFlags});
    banner("Table II — benchmark dataset information", options);

    Table table("Table II: paper statistics vs instantiated stand-ins");
    table.header({"dataset", "paper |V|", "paper |E|", "paper width",
                  "paper sparsity", "inst |V|", "inst |E|",
                  "inst width", "avg deg", "locality"});
    for (const auto &spec : allDatasets()) {
        const Dataset dataset = instantiateDataset(spec, options.scale);
        table.row(
            {spec.name, std::to_string(spec.fullVertices),
             std::to_string(spec.fullEdges),
             std::to_string(spec.inputFeatures),
             Table::percent(spec.featureSparsity28),
             std::to_string(dataset.graph.numVertices()),
             std::to_string(dataset.graph.numEdgesNoSelfLoops()),
             std::to_string(dataset.inputWidth),
             Table::num(static_cast<double>(
                            dataset.graph.numEdgesNoSelfLoops()) /
                            dataset.graph.numVertices(),
                        1),
             Table::num(dataset.graph.localityScore(
                            dataset.graph.numVertices() / 16),
                        2)});
    }
    table.print();

    std::printf("\nnote: |V| capped at %u x scale with degree "
                "preserved (Reddit's 492 capped at 48); NELL's input "
                "width capped at %u (simulation scale).\n",
                kDatasetVertexCap, kInputWidthCap);
    return 0;
}
