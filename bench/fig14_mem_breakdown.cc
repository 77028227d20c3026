/**
 * @file
 * Fig. 14: off-chip memory access breakdown (topology / feature
 * input / feature output / partial sums) of Reddit, normalized to
 * GCNAX's total, for the six accelerators. --datasets CR,CS,...
 * prints one table per dataset instead.
 *
 * Paper anchors: HyGCN ~1.9x dominated by duplicate feature reads;
 * AWB-GCN ~1.35x dominated by partial sums; GCNAX and I-GCN
 * balanced; SGCN ~0.55x with feature accesses cut by 54.3%.
 */

#include "bench_common.hh"

using namespace sgcn;
using namespace sgcn::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options = parseFlagsOrExit(
        Cli(argc, argv), {.groups = kHarnessFlags | kDatasetFlags,
                          .datasets = {datasetByAbbrev("RD")}});
    banner("Fig. 14 — off-chip access breakdown (Reddit)", options);

    for (const DatasetSpec &spec : options.datasets) {
        if (&spec != &options.datasets.front())
            std::printf("\n");
        const Dataset dataset = instantiateDataset(spec, options.scale);

        Table table("Fig. 14: accesses normalized to GCNAX total (" +
                    std::string(spec.abbrev) + ")");
        table.header({"accel", "topology", "feat in", "feat out", "psum",
                      "weights", "total"});

        double baseline_total = 0.0;
        RunResult sgcn_run, gcnax_run;
        for (const auto &config : allPersonalities()) {
            const RunResult run =
                runNetwork(config, dataset, options.net, options.run);
            if (config.name == "GCNAX") {
                baseline_total =
                    static_cast<double>(run.total.traffic.totalLines());
                gcnax_run = run;
            }
            if (config.name == "SGCN")
                sgcn_run = run;
            auto norm = [&](TrafficClass cls) {
                return Table::num(
                    static_cast<double>(run.total.traffic.classLines(cls)) /
                        baseline_total,
                    3);
            };
            table.row({config.name, norm(TrafficClass::Topology),
                       norm(TrafficClass::FeatureIn),
                       norm(TrafficClass::FeatureOut),
                       norm(TrafficClass::PartialSum),
                       norm(TrafficClass::Weight),
                       Table::num(static_cast<double>(
                                      run.total.traffic.totalLines()) /
                                      baseline_total,
                                  3)});
        }
        table.print();

        const double feature_cut =
            1.0 -
            static_cast<double>(
                sgcn_run.total.traffic.classLines(TrafficClass::FeatureIn) +
                sgcn_run.total.traffic.classLines(
                    TrafficClass::FeatureOut)) /
                static_cast<double>(
                    gcnax_run.total.traffic.classLines(
                        TrafficClass::FeatureIn) +
                    gcnax_run.total.traffic.classLines(
                        TrafficClass::FeatureOut));
        std::printf("\nmeasured: SGCN cuts feature accesses by %.1f%% "
                    "(paper: 54.3%%).\n",
                    100.0 * feature_cut);
    }
    return 0;
}
