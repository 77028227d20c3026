/**
 * @file
 * Fig. 20 (extension): resilience of the sharded runtime under
 * injected faults — slowdown vs link-degrade rate per personality,
 * PCIe vs NoC, plus the recovery overhead of losing a chip outright
 * under --degraded-mode repartition.
 *
 * Not a paper figure: the HPCA'23 paper models a fault-free
 * accelerator. This harness characterizes the fault-injection layer
 * (src/sim/fault/) the serving-trace work builds on: how gracefully
 * each personality degrades when a chip's ingress link starts
 * dropping transfers, and what a mid-network chip failure costs once
 * the survivors re-partition and replay the layer.
 *
 * Default sweep (no --faults): for each dataset and each link preset
 * (pcie4, noc), one table of slowdown vs degrade rate with a column
 * per personality, then a chip-fail recovery table. With an explicit
 * --faults SPEC the harness instead runs exactly that plan on every
 * personality and reports the cost against the fault-free run — the
 * CI smoke path, and a replay vehicle for any banner spec.
 *
 * Shares the bench_common flags; --chips below 2 is raised to 4
 * (chip-targeted faults need a sharded run).
 */

#include "accel/report.hh"
#include "bench_common.hh"

using namespace sgcn;
using namespace sgcn::bench;

namespace
{

/** Degrade rates swept by the default mode (0 = fault-free). */
const std::vector<std::string> kDegradeRates{"0", "0.05", "0.1",
                                             "0.25", "0.5"};

/** options.run with the given fault spec applied. */
RunOptions
withFaults(const BenchOptions &options, const std::string &spec)
{
    RunOptions opts = options.run;
    opts.faults = FaultPlan::parse(spec).orFatal();
    return opts;
}

double
slowdownOver(const RunResult &clean, const RunResult &faulted)
{
    if (clean.total.cycles == 0)
        return 0.0;
    return static_cast<double>(faulted.total.cycles) /
           static_cast<double>(clean.total.cycles);
}

/** Slowdown vs link-degrade rate, one column per personality. */
void
degradeSweep(const Dataset &dataset, const BenchOptions &options,
             const std::vector<AccelConfig> &configs,
             const std::vector<RunResult> &clean)
{
    Table table("Fig. 20 link-degrade slowdown on " +
                std::string(dataset.spec.abbrev) + " over " +
                options.run.link.name + " (" +
                std::to_string(options.run.chips) + " chips)");
    std::vector<std::string> header{"degrade rate"};
    for (const AccelConfig &config : configs)
        header.push_back(config.name);
    header.push_back("SGCN retries");
    header.push_back("SGCN backoff");
    table.header(header);

    for (const std::string &rate : kDegradeRates) {
        std::vector<RunResult> runs;
        if (rate == "0") {
            runs = clean;
        } else {
            runs = runAll(configs, dataset, options.net,
                          withFaults(options, "link-degrade:chip1:" +
                                                  rate));
        }
        std::vector<std::string> row{rate};
        for (std::size_t i = 0; i < configs.size(); ++i)
            row.push_back(
                Table::num(slowdownOver(clean[i], runs[i]), 3));
        const std::size_t sgcn = personalityIndex(configs, "SGCN");
        row.push_back(
            std::to_string(runs[sgcn].faults.linkRetries));
        row.push_back(
            std::to_string(runs[sgcn].faults.backoffCycles));
        table.row(row);
    }
    table.print();
}

/** Cost of losing chip1 at layer 1 under repartition. */
void
chipFailSweep(const Dataset &dataset, const BenchOptions &options,
              const std::vector<AccelConfig> &configs,
              const std::vector<RunResult> &clean)
{
    Table table("Fig. 20 chip-fail recovery on " +
                std::string(dataset.spec.abbrev) + " over " +
                options.run.link.name + " (chip1 dies at layer 1, " +
                "repartition)");
    table.header({"personality", "clean cycles", "degraded cycles",
                  "slowdown", "recovery cycles", "survivors"});

    const auto runs = runAll(configs, dataset, options.net,
                             withFaults(options,
                                        "chip-fail:chip1@layer1"));
    for (std::size_t i = 0; i < configs.size(); ++i) {
        table.row({configs[i].name,
                   std::to_string(clean[i].total.cycles),
                   std::to_string(runs[i].total.cycles),
                   Table::num(slowdownOver(clean[i], runs[i]), 3),
                   std::to_string(runs[i].faults.recoveryCycles),
                   std::to_string(runs[i].faults.survivingChips)});
    }
    table.print();
}

/** Replay an explicit --faults plan on every personality. */
void
replayPlan(const Dataset &dataset, const BenchOptions &options,
           const std::vector<AccelConfig> &configs,
           const std::vector<RunResult> &clean)
{
    Table table("Fig. 20 replay: " +
                options.run.faults.canonical() + " on " +
                std::string(dataset.spec.abbrev));
    table.header({"personality", "clean cycles", "faulted cycles",
                  "slowdown", "retries", "backoff", "timeouts",
                  "recovery"});

    const auto runs =
        runAll(configs, dataset, options.net, options.run);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        table.row({configs[i].name,
                   std::to_string(clean[i].total.cycles),
                   std::to_string(runs[i].total.cycles),
                   Table::num(slowdownOver(clean[i], runs[i]), 3),
                   std::to_string(runs[i].faults.linkRetries),
                   std::to_string(runs[i].faults.backoffCycles),
                   std::to_string(runs[i].faults.timeouts),
                   std::to_string(runs[i].faults.recoveryCycles)});
    }
    table.print();

    const std::size_t sgcn = personalityIndex(configs, "SGCN");
    const std::string line = faultSummaryLine(runs[sgcn]);
    if (!line.empty())
        std::printf("  %s\n\n", line.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv);
    BenchOptions options = parseFlagsOrExit(
        cli, {.groups = kHarnessFlags | kDatasetFlags,
              .datasets = {datasetByAbbrev("CR")}});
    // Chip-targeted faults need a sharded run.
    if (options.run.chips < 2)
        options.run.chips = 4;
    banner("Fig. 20 — fault injection and graceful degradation",
           options);

    const std::vector<AccelConfig> configs = allPersonalities();
    const bool replay = options.run.faults.active();
    // An explicit --link (its value already checked) narrows the
    // sweep to that preset.
    const std::vector<LinkConfig> links =
        cli.has("link") || replay
            ? std::vector<LinkConfig>{options.run.link}
            : std::vector<LinkConfig>{LinkConfig::pcie4(),
                                      LinkConfig::noc()};

    for (const DatasetSpec &spec : options.datasets) {
        const Dataset dataset = instantiateDataset(spec, options.scale);
        graphLine(dataset);
        for (const LinkConfig &link : links) {
            BenchOptions local = options;
            local.run.link = link;
            // Fault-free baselines for the slowdown denominators.
            BenchOptions clean_opts = local;
            clean_opts.run.faults = {};
            const auto clean = runAll(configs, dataset, options.net,
                                      clean_opts.run);
            if (replay) {
                replayPlan(dataset, local, configs, clean);
            } else {
                degradeSweep(dataset, local, configs, clean);
                chipFailSweep(dataset, local, configs, clean);
            }
        }
    }

    std::printf("\nexpectation: slowdown grows with the degrade rate "
                "(steeper over pcie4, whose\n"
                "             retry backoff is deeper than the "
                "noc's); chip-fail recovery adds a\n"
                "             bounded one-time cost and the "
                "survivors carry the dead shard.\n");
    return 0;
}
