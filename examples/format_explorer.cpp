/**
 * @file
 * Format explorer: encode a feature matrix at a chosen sparsity in
 * every supported format and compare storage footprint, per-row
 * read cost, and index overhead — then verify the BEICSR pipeline
 * functionally (compressor -> format -> sparse aggregator).
 *
 * Usage: format_explorer [--sparsity 0.6] [--width 256] [--rows 512]
 *                        [--slice 96]
 */

#include <cstdio>

#include "core/beicsr.hh"
#include "core/compressor.hh"
#include "core/sparse_aggregator.hh"
#include "cli/flags.hh"
#include "gcn/feature_matrix.hh"
#include "sim/table.hh"

using namespace sgcn;

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv);
    parseFlagsOrExit(cli, {.extras = {"sparsity", "width", "rows", "slice"}});
    const double sparsity = cli.getDouble("sparsity", 0.6).orFatal();
    if (sparsity < 0.0 || sparsity > 1.0)
        fatal("--sparsity: ", sparsity, " is outside [0, 1]");
    const std::uint32_t width = countFlag(cli, "width", 256, 1).orFatal();
    const std::uint32_t rows = countFlag(cli, "rows", 512, 1).orFatal();
    const std::uint32_t slice = countFlag(cli, "slice", 96, 0).orFatal();

    Rng rng(2026);
    const FeatureMask mask =
        FeatureMask::random(rows, width, sparsity, rng);
    std::printf("feature matrix: %u x %u at %.1f%% sparsity "
                "(dense footprint %.1f KB)\n\n",
                rows, width, 100.0 * mask.sparsity(),
                rows * width * 4.0 / 1024.0);

    Table table("format comparison");
    table.header({"format", "storage KB", "avg row-read lines",
                  "vs dense", "slices"});
    const FormatKind kinds[] = {
        FormatKind::Dense,          FormatKind::Csr,
        FormatKind::Coo,            FormatKind::Bsr,
        FormatKind::BlockedEllpack, FormatKind::BeicsrNonSliced,
        FormatKind::BeicsrSplitBitmap, FormatKind::Beicsr,
    };
    double dense_lines = 1.0;
    for (FormatKind kind : kinds) {
        auto layout = makeLayout(kind, width, slice);
        layout->prepare(mask, 0x4000'0000ULL);
        std::uint64_t lines = 0;
        for (VertexId v = 0; v < rows; ++v)
            lines += layout->planRowRead(v).totalLines();
        const double avg =
            static_cast<double>(lines) / static_cast<double>(rows);
        if (kind == FormatKind::Dense)
            dense_lines = avg;
        table.row({layout->name(),
                   Table::num(layout->storageBytes() / 1024.0, 1),
                   Table::num(avg, 2),
                   Table::num(avg / dense_lines, 2),
                   std::to_string(layout->numSlices())});
    }
    table.print();

    // Functional round trip through the paper's pipeline: combination
    // output -> compressor (ReLU + BEICSR) -> sparse aggregator.
    std::printf("\nfunctional pipeline check "
                "(compressor -> BEICSR -> sparse aggregator): ");
    Rng value_rng(7);
    Compressor compressor(width, slice);
    std::vector<float> reference(width);
    for (std::uint32_t c = 0; c < width; ++c) {
        const auto value = static_cast<float>(value_rng.normal());
        reference[c] = value > 0.0f ? value : 0.0f;
        compressor.push(value);
    }
    SparseAggregator aggregator(width, slice);
    aggregator.accumulate(compressor.encodedRow(), 1.0f);
    double max_err = 0.0;
    for (std::uint32_t c = 0; c < width; ++c) {
        max_err = std::max(max_err,
                           std::abs(static_cast<double>(
                                        aggregator.result()[c]) -
                                    reference[c]));
    }
    std::printf("max |err| = %g -> %s\n", max_err,
                max_err == 0.0 ? "bit-exact" : "MISMATCH");
    return max_err == 0.0 ? 0 : 1;
}
