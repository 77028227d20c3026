/**
 * @file
 * Substrate ablations beyond the paper's Fig. 12:
 * how SGCN's speedup depends on design choices the paper fixes —
 * cache replacement policy, DRAM scheduling (FR-FCFS vs FCFS),
 * the aggregation psum-buffer budget, and the split- vs embedded-
 * bitmap placement (run per layer through the cache).
 */

#include "bench_common.hh"

using namespace sgcn;
using namespace sgcn::bench;

int
main(int argc, char **argv)
{
    const BenchOptions options =
        parseFlagsOrExit(Cli(argc, argv), {.groups = kHarnessFlags});
    banner("substrate ablations beyond Fig. 12", options);

    const char *abbrevs[] = {"CR", "PM", "RD"};

    // 1) Cache replacement policy under SGCN and GCNAX.
    {
        Table table("replacement policy: cycles normalized to LRU");
        table.header({"dataset", "accel", "LRU", "FIFO", "Random",
                      "SRRIP"});
        for (const char *abbrev : abbrevs) {
            const Dataset dataset = instantiateDataset(
                datasetByAbbrev(abbrev), options.scale);
            for (const AccelConfig &base :
                 {makeSgcn(), makeGcnax()}) {
                std::vector<std::string> row{abbrev, base.name};
                double lru_cycles = 1.0;
                for (ReplacementPolicy policy :
                     {ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
                      ReplacementPolicy::Random,
                      ReplacementPolicy::Srrip}) {
                    AccelConfig config = base;
                    config.cache.replacement = policy;
                    const RunResult run = runNetwork(
                        config, dataset, options.net, options.run);
                    if (policy == ReplacementPolicy::Lru) {
                        lru_cycles =
                            static_cast<double>(run.total.cycles);
                    }
                    row.push_back(Table::num(
                        static_cast<double>(run.total.cycles) /
                            lru_cycles,
                        3));
                }
                table.row(row);
            }
        }
        table.print();
        std::printf("\n");
    }

    // 2) Psum-budget (destination tile height) sweep for SGCN.
    {
        Table table("agg psum budget: SGCN cycles normalized to "
                    "1536 KB");
        table.header({"dataset", "384KB", "768KB", "1536KB",
                      "3072KB"});
        for (const char *abbrev : abbrevs) {
            const Dataset dataset = instantiateDataset(
                datasetByAbbrev(abbrev), options.scale);
            std::vector<double> cycles;
            double base_cycles = 1.0;
            for (std::uint64_t kb : {384u, 768u, 1536u, 3072u}) {
                AccelConfig config = makeSgcn();
                config.aggPsumBudgetBytes = kb * 1024;
                const RunResult run = runNetwork(
                    config, dataset, options.net, options.run);
                cycles.push_back(
                    static_cast<double>(run.total.cycles));
                if (kb == 1536u)
                    base_cycles = cycles.back();
            }
            std::vector<std::string> row{abbrev};
            for (double c : cycles)
                row.push_back(Table::num(c / base_cycles, 3));
            table.row(row);
        }
        table.print();
        std::printf("\n");
    }

    // 3) DRAM scheduler: FR-FCFS scan window (timing mode only —
    //    scheduling is invisible to the fast roofline).
    {
        Table table("DRAM scheduling (timing mode, CR): cycles "
                    "normalized to FR-FCFS");
        table.header({"accel", "FR-FCFS(16)", "FCFS(1)"});
        const Dataset dataset =
            instantiateDataset(datasetByAbbrev("CR"), 0.25);
        RunOptions timing = options.run;
        timing.mode = ExecutionMode::Timing;
        timing.sampledIntermediateLayers = 2;
        for (const AccelConfig &base : {makeSgcn(), makeGcnax()}) {
            AccelConfig frfcfs = base;
            AccelConfig fcfs = base;
            fcfs.dram.schedWindow = 1;
            const double fr = static_cast<double>(
                runNetwork(frfcfs, dataset, options.net, timing)
                    .total.cycles);
            const double fc = static_cast<double>(
                runNetwork(fcfs, dataset, options.net, timing)
                    .total.cycles);
            table.row({base.name, "1.000", Table::num(fc / fr, 3)});
        }
        table.print();
    }

    std::printf("\nexpected: SGCN's gains persist across policies; "
                "FCFS costs row-buffer locality;\n"
                "          the psum budget trades tile height against "
                "on-chip area.\n");
    return 0;
}
