/**
 * @file
 * Fig. 17: sensitivity of SGCN's off-chip accesses to the unit
 * slice size C (32-256), normalized to C = 96, plus a companion
 * sweep over the SAC strip height (a substrate choice the paper
 * fixes).
 *
 * Paper anchors: best overall at C = 96; the whole 32-256 range
 * stays within a modest band of it.
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
    banner("Fig. 17 — unit slice size sensitivity", options);

    const std::uint32_t sizes[] = {32, 64, 96, 128, 256};

    Table access("Fig. 17: SGCN off-chip accesses normalized to "
                 "C=96");
    Table cycles("companion: SGCN cycles normalized to C=96");
    std::vector<std::string> header{"dataset"};
    for (std::uint32_t c : sizes)
        header.push_back("C=" + std::to_string(c));
    access.header(header);
    cycles.header(header);

    for (const auto &spec : options.datasets) {
        const Dataset dataset = instantiateDataset(spec, options.scale);
        std::vector<double> lines;
        std::vector<double> times;
        double base_lines = 1.0, base_cycles = 1.0;
        for (std::uint32_t c : sizes) {
            AccelConfig config = makeSgcn();
            config.sliceC = c;
            const RunResult run =
                runNetwork(config, dataset, options.net, options.run);
            lines.push_back(
                static_cast<double>(run.total.traffic.totalLines()));
            times.push_back(static_cast<double>(run.total.cycles));
            if (c == 96) {
                base_lines = lines.back();
                base_cycles = times.back();
            }
        }
        std::vector<std::string> access_row{spec.abbrev};
        std::vector<std::string> cycle_row{spec.abbrev};
        for (std::size_t i = 0; i < lines.size(); ++i) {
            access_row.push_back(Table::num(lines[i] / base_lines, 3));
            cycle_row.push_back(Table::num(times[i] / base_cycles, 3));
        }
        access.row(access_row);
        cycles.row(cycle_row);
    }
    access.print();
    std::printf("\n");
    cycles.print();
    std::printf("\n");

    // Companion ablation: SAC strip height (the paper fixes 32).
    Table strips("companion: SGCN cycles vs SAC strip height, "
                 "normalized to 32 (CR, PM, DB)");
    strips.header({"dataset", "8", "16", "32", "64", "128"});
    for (const char *abbrev : {"CR", "PM", "DB"}) {
        const Dataset dataset = instantiateDataset(
            datasetByAbbrev(abbrev), options.scale);
        std::vector<double> times;
        double base = 1.0;
        for (VertexId strip : {8u, 16u, 32u, 64u, 128u}) {
            AccelConfig config = makeSgcn();
            config.sacStripHeight = strip;
            const RunResult run =
                runNetwork(config, dataset, options.net, options.run);
            times.push_back(static_cast<double>(run.total.cycles));
            if (strip == 32)
                base = times.back();
        }
        std::vector<std::string> row{abbrev};
        for (double t : times)
            row.push_back(Table::num(t / base, 3));
        strips.row(row);
    }
    strips.print();

    std::printf("\npaper: performance is not very sensitive within "
                "C=32..256; C=96 is best overall.\n");
    return 0;
}
