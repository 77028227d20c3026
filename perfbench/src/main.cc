/**
 * @file
 * sgcn_perfbench: runs one benchmark workload through the
 * simulator's public entry points (instantiateDataset, tryRunAll,
 * tryRunNetwork, tryServeTrace), times it, checks its outputs, and
 * prints one JSON report on stdout for perfbench/run.py to turn into
 * metrics.
 *
 *   sgcn_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --csv FILE
 *
 * Every workload runs serially (RunOptions::jobs = 1), so host time
 * is one core's and results need no fan-out to be reproduced.
 *
 * Untraced (--trace 0): set-up is repeated and timed, then whole
 * passes of the workload run until --seconds (counted from process
 * start) is spent. Each pass starts from empty sweep memos, simulates
 * every run, and exports the results (writeRunsCsv + runResultStats).
 * Every result must satisfy the schedule invariants and repeat bit for
 * bit in every pass.
 *
 * Each set-up and each timed unit of a pass runs pinned to the next of
 * the CPUs the process may use, in rotation, so that a core slowed by
 * another tenant for seconds at a time holds only some of a unit's
 * repetitions. A fixed reference kernel is timed on the same core
 * just before and after each unit; run.py reports unit time relative
 * to it, which cancels the slowdown the two share.
 *
 * Traced (--trace 1): passes alternate untraced and traced; a traced
 * pass replays the same work layer by layer under in-memory spans
 * (replay.hh) and must reproduce the untraced results bit for bit.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "accel/personalities.hh"
#include "accel/report.hh"
#include "accel/stream_artifacts.hh"
#include "replay.hh"

using namespace sgcn;
using perfbench::Counters;
using perfbench::Replay;
using perfbench::ScopedSpan;
using perfbench::Tracer;

namespace
{

using Clock = std::chrono::steady_clock;

const char *const kUsage =
    "usage: sgcn_perfbench --workload sweep-fast|timing-small|"
    "serve-reddit|shard-30k\n"
    "                      --seed N --seconds S --trace 0|1 "
    "--csv FILE\n";

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "sgcn_perfbench: %s\n%s", message.c_str(),
                 kUsage);
    std::exit(2);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string csv;
};

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text,
              std::uint64_t max)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end || value > max)
        usageError("bad value '" + text + "' for --" + flag);
    return value;
}

/** Strict parser: every flag takes a value, unknown flags and
 *  malformed or out-of-range values exit 2. */
Args
parseArgs(int argc, char **argv)
{
    Args args;
    std::vector<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            usageError("unexpected argument '" + arg + "'");
        std::string flag = arg.substr(2);
        std::string value;
        if (const auto eq = flag.find('='); eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usageError("--" + flag + " needs a value");
        }
        if (std::find(seen.begin(), seen.end(), flag) != seen.end())
            usageError("--" + flag + " given twice");
        seen.push_back(flag);

        if (flag == "workload") {
            args.workload = value;
        } else if (flag == "seed") {
            args.seed = parseUnsigned(flag, value, UINT32_MAX);
        } else if (flag == "seconds") {
            char *end = nullptr;
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' ||
                !std::isfinite(args.seconds) || args.seconds <= 0.0 ||
                args.seconds > 600.0)
                usageError("bad value '" + value + "' for --seconds");
        } else if (flag == "trace") {
            args.trace = static_cast<int>(parseUnsigned(flag, value, 1));
        } else if (flag == "csv") {
            args.csv = value;
        } else {
            usageError("unknown flag --" + flag);
        }
    }
    if (args.workload.empty() || args.seconds <= 0.0 || args.trace < 0 ||
        args.csv.empty())
        usageError("--workload, --seed, --seconds, --trace and --csv "
                   "are required");
    return args;
}

/** One benchmark workload: inputs, personalities and run shape. */
struct Workload
{
    std::vector<std::string> datasets;
    double scale = 1.0;
    std::vector<std::string> accels;
    RunOptions opts;

    /** One tryRunAll per dataset (else one tryRunNetwork per run). */
    bool runAll = false;

    bool serve = false;
    ServeOptions serveOpts;
};

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    const std::vector<std::string> six{"GCNAX", "HyGCN", "AWB-GCN",
                                       "EnGN",  "I-GCN", "SGCN"};
    Workload w;
    if (name == "sweep-fast") {
        // Fig. 11's cross-product at 8% of the default vertex cap
        // (a pass of about 2 s): every Table II dataset, fast mode,
        // serial totals.
        for (const DatasetSpec &spec : datasetsBySparsity())
            w.datasets.push_back(spec.abbrev);
        w.scale = 0.08;
        w.accels = six;
        w.runAll = true;
    } else if (name == "timing-small") {
        // Cora only, two sampled intermediate layers: a pass of about
        // 2 s, so a run repeats each personality about a dozen times.
        w.datasets = {"CR"};
        w.accels = six;
        w.opts.sampledIntermediateLayers = 2;
        w.opts.mode = ExecutionMode::Timing;
        w.opts.interLayerOverlap = true;
        w.opts.tileOverlap = true;
    } else if (name == "serve-reddit") {
        w.datasets = {"RD"};
        w.accels = {"SGCN", "GCNAX"};
        w.serve = true;
        w.serveOpts.offeredQps = 2000.0;
        w.serveOpts.requests = 1024;
        w.serveOpts.sample.seed += seed;
    } else if (name == "shard-30k") {
        w.datasets = {"synth:30k"};
        w.accels = {"SGCN", "GCNAX", "I-GCN"};
        w.opts.chips = 4;
        w.opts.partitionPolicy = PartitionPolicy::EdgeBalanced;
        w.opts.link = LinkConfig::pcie4();
    } else {
        usageError("unknown workload '" + name + "'");
    }
    return w;
}

double
seconds(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** The CPUs this process may run on, ascending; empty if unknown. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
    return cpus;
}

/** Pin the calling thread to cpus[index % size] (no-op when empty). */
void
pinToNth(const std::vector<int> &cpus, std::size_t index)
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[index % cpus.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
}

/**
 * Host seconds of a fixed integer kernel: four independent
 * multiply-add chains, no memory traffic. It shares nothing with the
 * simulator, so no change to the simulator moves it, but it slows with
 * the core it runs on: other tenants of a shared host slow this kernel
 * and the simulator together, for seconds at a time.
 */
double
referenceKernelSeconds()
{
    static volatile std::uint64_t sink;
    const auto start = Clock::now();
    std::uint64_t a = sink | 1, b = 2, c = 3, d = 4;
    for (int i = 0; i < 3000000; ++i) {
        a = a * 0x9E3779B97F4A7C15ULL + (b >> 7);
        b = b * 0xBF58476D1CE4E5B9ULL + (c >> 9);
        c = c * 0x94D049BB133111EBULL + (d >> 11);
        d = d * 0xD6E8FEB86659FD93ULL + (a >> 13);
    }
    sink = a ^ b ^ c ^ d;
    return seconds(start);
}

/** @p text as a JSON string literal. */
std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char ch : text) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out + "\"";
}

/** Instantiate the workload's datasets (and, for serving, its arrival
 *  schedule and admitted batches), under spans when traced. */
std::vector<Dataset>
setUp(const Workload &w, std::uint64_t seed, Tracer *tracer)
{
    std::vector<Dataset> datasets;
    for (const std::string &abbrev : w.datasets) {
        ScopedSpan span(tracer, "graph.build");
        datasets.push_back(
            instantiateDataset(datasetByAbbrev(abbrev), w.scale, seed));
    }
    if (w.serve) {
        ScopedSpan span(tracer, "serve.arrivals");
        const auto batches =
            admitBatches(generateArrivals(w.serveOpts),
                         w.serveOpts.maxBatch,
                         w.serveOpts.maxLingerCycles);
        if (batches.empty()) {
            std::fprintf(stderr, "sgcn_perfbench: serving trace "
                                 "admitted no batches\n");
            std::exit(1);
        }
    }
    return datasets;
}

/** What one pass produced. */
struct Pass
{
    bool traced = false;
    double wallS = 0.0;
    std::vector<double> unitS;
    /** Reference-kernel seconds around each unit (mean of before and
     *  after, on the unit's CPU). */
    std::vector<double> unitRefS;
    std::vector<RunResult> runs;
    std::vector<std::string> forms;
    std::uint64_t failed = 0;
    Counters counters;
};

class Bench
{
  public:
    Bench(const Args &args, const Workload &w,
          std::vector<Dataset> datasets, Tracer &tracer,
          std::vector<int> cpus)
        : args(args), w(w), datasets(std::move(datasets)), tracer(tracer),
          cpus(std::move(cpus))
    {
        for (const std::string &name : w.accels)
            configs.push_back(personalityByName(name));
    }

    /** One pass over the workload; traced passes replay it. */
    void
    run(bool traced)
    {
        Pass pass;
        pass.traced = traced;
        Replay replay(tracer, pass.counters);
        Tracer *spans = traced ? &tracer : nullptr;
        if (traced)
            tracer.setPass(static_cast<std::int32_t>(passes.size()));
        clearSweepArtifacts();

        // The pass is timed in units (one runAll, run or served
        // trace each, then the export), each beside the reference
        // kernel on its core, so run.py can take each unit's median
        // cost relative to that kernel across passes. Unit u of pass
        // p runs on CPU p + u of the rotation, so every unit visits
        // every CPU.
        const auto start = Clock::now();
        const std::size_t round = passes.size();
        const auto unit = [&pass, this, round](const auto &work) {
            pinToNth(cpus, round + pass.unitS.size());
            const double ref_before = referenceKernelSeconds();
            const auto unit_start = Clock::now();
            work();
            pass.unitS.push_back(seconds(unit_start));
            pass.unitRefS.push_back(
                0.5 * (ref_before + referenceKernelSeconds()));
        };
        for (const Dataset &dataset : datasets) {
            if (w.runAll) {
                unit([&] {
                    if (!traced) {
                        collect(pass,
                                tryRunAll(configs, dataset, net, w.opts),
                                configs.size());
                        return;
                    }
                    for (const AccelConfig &config : configs)
                        pass.runs.push_back(
                            replay.network(config, dataset, net, w.opts));
                });
                continue;
            }
            for (const AccelConfig &config : configs) {
                unit([&] {
                    if (traced && w.serve)
                        pass.runs.push_back(replay.serve(
                            config, dataset, net, w.opts, w.serveOpts));
                    else if (traced)
                        pass.runs.push_back(
                            replay.network(config, dataset, net, w.opts));
                    else if (w.serve)
                        collect(pass,
                                tryServeTrace(config, dataset, net, w.opts,
                                              w.serveOpts),
                                1);
                    else
                        collect(pass,
                                tryRunNetwork(config, dataset, net, w.opts),
                                1);
                });
            }
        }
        unit([&] {
            ScopedSpan span(spans, "report.export");
            writeRunsCsv(pass.runs, args.csv);
            for (const RunResult &r : pass.runs)
                exportedStats += runResultStats(r).entries().size();
        });
        pass.wallS = seconds(start);

        const ArtifactStats artifacts =
            StreamArtifactCache::instance().stats();
        pass.counters["artifacts.hits"] =
            static_cast<double>(artifacts.hits);
        pass.counters["artifacts.misses"] =
            static_cast<double>(artifacts.misses);
        pass.counters["artifacts.bytes"] =
            static_cast<double>(artifacts.bytes);

        attempted += pass.runs.size() + replay.batchesChecked();
        for (const std::string &why : replay.failures())
            fail(pass, why);
        for (const RunResult &r : pass.runs) {
            pass.forms.push_back(perfbench::canonicalForm(r));
            if (std::string why = perfbench::checkRun(r); !why.empty())
                fail(pass, why);
        }
        compareWithFirst(pass);
        if (passes.empty()) {
            // Peak RSS is read after set-up and the first pass, so it
            // does not depend on how many passes the budget allowed.
            rusage usage{};
            getrusage(RUSAGE_SELF, &usage);
            peakRssKb = usage.ru_maxrss;
        } else {
            // Only the first pass's results are reported.
            pass.runs.clear();
            pass.forms.clear();
        }
        passes.push_back(std::move(pass));
    }

    void
    report(const std::vector<double> &setup_s) const
    {
        std::uint64_t digest = 0xcbf29ce484222325ULL;
        for (const std::string &form : passes.front().forms)
            digest = perfbench::fnv1a(form, digest);
        std::uint64_t failed_runs = 0;
        for (const Pass &p : passes)
            failed_runs += p.failed;

        std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                    ", \"trace\": %d,\n",
                    args.workload.c_str(), args.seed, args.trace);
        std::printf(" \"setup_s\": [");
        for (std::size_t i = 0; i < setup_s.size(); ++i)
            std::printf("%s%.9f", i ? ", " : "", setup_s[i]);
        std::printf("],\n \"peak_rss_kb\": %ld,\n", peakRssKb);
        std::printf(" \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                    ",\n",
                    attempted, failed_runs);
        std::printf(" \"failures\": [");
        for (std::size_t i = 0; i < failures.size(); ++i)
            std::printf("%s%s", i ? ", " : "",
                        jsonString(failures[i]).c_str());
        std::printf("],\n \"sim_digest\": \"%016" PRIx64 "\",\n",
                    digest);
        std::printf(" \"exported_stats\": %" PRIu64 ",\n",
                    exportedStats);

        std::printf(" \"cycles\": [");
        const auto &first = passes.front().runs;
        for (std::size_t i = 0; i < first.size(); ++i)
            std::printf("%s[\"%s\", \"%s\", %" PRIu64 "]",
                        i ? ", " : "", first[i].datasetAbbrev.c_str(),
                        first[i].accelName.c_str(),
                        static_cast<std::uint64_t>(
                            first[i].total.cycles));
        std::printf("],\n \"passes\": [");
        for (std::size_t i = 0; i < passes.size(); ++i) {
            std::printf("%s\n  {\"traced\": %s, \"wall_s\": %.9f, "
                        "\"units_s\": [",
                        i ? "," : "", passes[i].traced ? "true" : "false",
                        passes[i].wallS);
            for (std::size_t u = 0; u < passes[i].unitS.size(); ++u)
                std::printf("%s%.9f", u ? ", " : "", passes[i].unitS[u]);
            std::printf("], \"units_ref_s\": [");
            for (std::size_t u = 0; u < passes[i].unitRefS.size(); ++u)
                std::printf("%s%.9f", u ? ", " : "", passes[i].unitRefS[u]);
            std::printf("], \"counters\": {");
            bool comma = false;
            for (const auto &[name, value] : passes[i].counters) {
                std::printf("%s\"%s\": %.17g", comma ? ", " : "",
                            name.c_str(), value);
                comma = true;
            }
            std::printf("}}");
        }
        std::printf("],\n \"span_names\": [");
        const auto &names = tracer.names();
        for (std::size_t i = 0; i < names.size(); ++i)
            std::printf("%s\"%s\"", i ? ", " : "", names[i].c_str());
        std::printf("],\n \"spans\": [");
        const auto &spans = tracer.spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Tracer::Span &s = spans[i];
            std::printf("%s[%u, %d, %" PRId64 ", %" PRId64 ", %d]",
                        i ? ",\n  " : "\n  ", s.name, s.parent,
                        s.startNs, s.endNs, s.pass);
        }
        std::printf("]}\n");
    }

  private:
    template <typename Result>
    void
    collect(Pass &pass, Expected<Result> result, std::size_t runs)
    {
        if (!result.ok()) {
            attempted += runs;
            pass.failed += runs;
            note(result.error().message);
            return;
        }
        if constexpr (std::is_same_v<Result, RunResult>)
            pass.runs.push_back(std::move(result.value()));
        else
            for (RunResult &r : result.value())
                pass.runs.push_back(std::move(r));
    }

    void
    fail(Pass &pass, const std::string &why)
    {
        ++pass.failed;
        note(why);
    }

    void
    note(const std::string &why)
    {
        if (failures.size() < 20)
            failures.push_back(why);
    }

    /** Every pass must reproduce the first one bit for bit. */
    void
    compareWithFirst(Pass &pass)
    {
        if (passes.empty())
            return;
        const Pass &first = passes.front();
        if (first.forms.size() != pass.forms.size()) {
            fail(pass, "pass produced a different number of runs");
            return;
        }
        for (std::size_t i = 0; i < pass.forms.size(); ++i) {
            if (pass.forms[i] != first.forms[i]) {
                fail(pass, std::string(pass.traced ? "traced replay"
                                                   : "repeat pass") +
                               " differs from the first pass on " +
                               pass.runs[i].accelName + "/" +
                               pass.runs[i].datasetAbbrev);
            }
        }
    }

    const Args &args;
    const Workload &w;
    std::vector<Dataset> datasets;
    Tracer &tracer;
    std::vector<int> cpus;
    std::vector<AccelConfig> configs;
    NetworkSpec net;
    std::vector<Pass> passes;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t exportedStats = 0;
    long peakRssKb = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const auto start = Clock::now();
    const Args args = parseArgs(argc, argv);
    const Workload w = makeWorkload(args.workload, args.seed);

    // Set-up is timed several times and reported as a list: five
    // times here (the last instantiation is the one the passes use),
    // then once after every untraced round, so the samples span the
    // whole run rather than its first moments.
    std::vector<double> setup_s;
    std::vector<Dataset> datasets;
    const unsigned setups = args.trace ? 1 : 5;
    const std::vector<int> cpus = allowedCpus();
    Tracer tracer;
    tracer.setPass(-1);
    const auto timeSetUp = [&](std::size_t cpu, Tracer *spans) {
        pinToNth(cpus, cpu);
        const auto setup_start = Clock::now();
        auto built = setUp(w, args.seed, spans);
        setup_s.push_back(seconds(setup_start));
        return built;
    };
    for (unsigned i = 0; i < setups; ++i)
        datasets = timeSetUp(i, args.trace ? &tracer : nullptr);

    Bench bench(args, w, std::move(datasets), tracer, cpus);

    // Whole passes until the budget is spent: at least three untraced
    // passes, or two untraced/traced pairs in alternating order (so
    // warm-up falls on both sides of the overhead ratio) when tracing.
    std::vector<double> cost;
    const unsigned min_rounds = args.trace ? 2 : 3;
    for (unsigned round = 0;; ++round) {
        const auto round_start = Clock::now();
        const bool traced_first = args.trace && round % 2 == 1;
        bench.run(traced_first);
        if (args.trace)
            bench.run(!traced_first);
        else
            timeSetUp(setups + round, nullptr);
        cost.push_back(seconds(round_start));
        const bool balanced = !args.trace || round % 2 == 1;
        if (round + 1 >= min_rounds && balanced &&
            seconds(start) + median(cost) > args.seconds)
            break;
    }
    bench.report(setup_s);
    return 0;
}
