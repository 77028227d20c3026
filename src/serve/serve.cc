#include "serve/serve.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "sim/fault/fault.hh"
#include "sim/rng.hh"
#include "sim/thread_pool.hh"

namespace sgcn
{

std::vector<Cycle>
generateArrivals(const ServeOptions &serve)
{
    SGCN_ASSERT(serve.offeredQps > 0.0,
                "serve rate must be positive");
    const double mean_cycles = kServeClockHz / serve.offeredQps;
    // The arrival stream derives from the trace seed but lives in
    // its own substream, decorrelated from request sampling.
    std::uint64_t x = serve.sample.seed ^ 0xa221a1ULL;
    Rng rng(Rng::splitMix64(x));
    std::vector<Cycle> arrivals;
    arrivals.reserve(serve.requests);
    double t = 0.0;
    for (unsigned r = 0; r < serve.requests; ++r) {
        if (serve.poisson) {
            // Exponential inter-arrival; uniform() < 1 keeps the log
            // argument positive.
            t += -std::log(1.0 - rng.uniform()) * mean_cycles;
        } else {
            t = mean_cycles * static_cast<double>(r + 1);
        }
        arrivals.push_back(static_cast<Cycle>(t));
    }
    return arrivals;
}

std::vector<RequestBatch>
admitBatches(const std::vector<Cycle> &arrivals, unsigned max_batch,
             Cycle max_linger)
{
    SGCN_ASSERT(max_batch >= 1, "batches need at least one slot");
    std::vector<RequestBatch> batches;
    std::size_t i = 0;
    while (i < arrivals.size()) {
        RequestBatch batch;
        batch.first = static_cast<std::uint32_t>(i);
        batch.count = 1;
        const Cycle deadline = arrivals[i] + max_linger;
        std::size_t j = i + 1;
        while (j < arrivals.size() && batch.count < max_batch &&
               arrivals[j] < deadline) {
            ++batch.count;
            ++j;
        }
        // Full batches close on their filling arrival; short ones
        // wait out the linger timer.
        batch.closeCycle =
            batch.count == max_batch ? arrivals[j - 1] : deadline;
        batches.push_back(batch);
        i = j;
    }
    return batches;
}

Cycle
latencyPercentile(std::vector<Cycle> samples, double pct)
{
    if (samples.empty())
        return 0;
    SGCN_ASSERT(pct > 0.0 && pct <= 100.0,
                "percentile out of range: ", pct);
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(std::ceil(
        pct / 100.0 * static_cast<double>(samples.size())));
    return samples[std::max<std::size_t>(rank, 1) - 1];
}

namespace
{

/** Service outcome of one batch. */
struct BatchService
{
    RunResult run;
    std::uint64_t vertices = 0;
    std::uint64_t edges = 0;
};

} // anonymous namespace

Expected<RunResult>
tryServeTrace(const AccelConfig &config, const Dataset &dataset,
              const NetworkSpec &net, const RunOptions &opts,
              const ServeOptions &serve)
{
    const std::vector<Cycle> arrivals = generateArrivals(serve);
    const std::vector<RequestBatch> batches =
        admitBatches(arrivals, serve.maxBatch, serve.maxLingerCycles);

    // Batch composition is arrival-driven (never service-driven), so
    // the per-batch service simulations are independent: fan them
    // out over the pool, input-ordered, exactly like tryRunAll.
    std::vector<BatchService> services(batches.size());
    std::vector<std::unique_ptr<SgcnError>> errors(batches.size());
    parallelFor(opts.jobs, batches.size(), [&](std::size_t b) {
        const RequestBatch &batch = batches[b];
        BatchSubgraph sub = sampleBatchSubgraph(
            dataset.graph, batch.first, batch.count, serve.sample);
        Dataset batch_ds{dataset.spec, std::move(sub.graph),
                         dataset.inputWidth, dataset.vertexScale,
                         0.0};
        RunOptions batch_opts = opts;
        if (batch_opts.faults.active()) {
            // Each batch replays the plan under its own derived
            // stream: the same trace + plan always reproduces the
            // same tail, while batches decorrelate from each other.
            batch_opts.faults.seed = FaultInjector::deriveSeed(
                opts.faults.seed, static_cast<std::uint64_t>(b));
        }
        Expected<RunResult> r =
            tryRunNetwork(config, batch_ds, net, batch_opts);
        if (!r.ok()) {
            errors[b] = std::make_unique<SgcnError>(r.error());
            return;
        }
        services[b].run = std::move(r.value());
        services[b].vertices = batch_ds.graph.numVertices();
        services[b].edges = batch_ds.graph.numEdges();
    });
    for (const auto &err : errors) {
        if (err)
            return *err;
    }

    // Chain batches on the accelerator timeline and charge each
    // request the completion of its batch.
    RunResult run;
    run.accelName = config.name;
    run.datasetAbbrev = dataset.spec.abbrev;
    ServeStats &stats = run.serve;
    stats.enabled = true;
    stats.requests = static_cast<unsigned>(arrivals.size());
    stats.batches = static_cast<unsigned>(batches.size());
    stats.offeredQps = serve.offeredQps;
    stats.poisson = serve.poisson;
    stats.maxBatch = serve.maxBatch;
    stats.maxLingerCycles = serve.maxLingerCycles;

    std::vector<Cycle> latencies;
    latencies.reserve(arrivals.size());
    Cycle prev_end = 0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
        const RequestBatch &batch = batches[b];
        const BatchService &svc = services[b];
        const Cycle start = std::max(batch.closeCycle, prev_end);
        const Cycle end = start + svc.run.total.cycles;
        prev_end = end;
        for (std::uint32_t r = 0; r < batch.count; ++r)
            latencies.push_back(end - arrivals[batch.first + r]);

        run.total.merge(svc.run.total);
        run.energy.computeJ += svc.run.energy.computeJ;
        run.energy.cacheJ += svc.run.energy.cacheJ;
        run.energy.dramJ += svc.run.energy.dramJ;
        run.tdpWatts = std::max(run.tdpWatts, svc.run.tdpWatts);
        run.areaMm2 = std::max(run.areaMm2, svc.run.areaMm2);
        stats.subgraphVertices += svc.vertices;
        stats.subgraphEdges += svc.edges;
        stats.peakOccupancy =
            std::max(stats.peakOccupancy, unsigned{batch.count});

        if (svc.run.shard.enabled) {
            ShardStats &shard = run.shard;
            const ShardStats &bs = svc.run.shard;
            shard.enabled = true;
            shard.chips = std::max(shard.chips, bs.chips);
            shard.partitionPolicy = bs.partitionPolicy;
            shard.linkName = bs.linkName;
            shard.haloVertices += bs.haloVertices;
            shard.exchangeBytes += bs.exchangeBytes;
            shard.exchangeCycles += bs.exchangeCycles;
            shard.linkBusyCycles += bs.linkBusyCycles;
            shard.bottleneckChipCycles += bs.bottleneckChipCycles;
        }
        if (svc.run.faults.enabled) {
            FaultStats &faults = run.faults;
            const FaultStats &bf = svc.run.faults;
            faults.enabled = true;
            faults.spec = opts.faults.canonical();
            faults.seed = opts.faults.seed;
            faults.degradedMode = bf.degradedMode;
            faults.linkRetries += bf.linkRetries;
            faults.backoffCycles += bf.backoffCycles;
            faults.timeouts += bf.timeouts;
            faults.dramRetries += bf.dramRetries;
            faults.stallCycles += bf.stallCycles;
            faults.recoveryCycles += bf.recoveryCycles;
            faults.repartitions += bf.repartitions;
            // Every batch replays the same deterministic chip-fail
            // clauses, so the machine's end state is any batch's:
            // event counters sum, the topology does not.
            faults.failedChips = bf.failedChips;
            faults.survivingChips = bf.survivingChips;
            faults.recoveredLayers = bf.recoveredLayers;
        }
    }
    stats.makespanCycles = prev_end;
    stats.meanOccupancy =
        stats.batches == 0
            ? 0.0
            : static_cast<double>(stats.requests) /
                  static_cast<double>(stats.batches);
    stats.p50Cycles = latencyPercentile(latencies, 50.0);
    stats.p95Cycles = latencyPercentile(latencies, 95.0);
    stats.p99Cycles = latencyPercentile(latencies, 99.0);
    if (stats.makespanCycles > 0) {
        stats.sustainedQps = static_cast<double>(stats.requests) /
                             (static_cast<double>(
                                  stats.makespanCycles) /
                              kServeClockHz);
    }
    if (run.shard.enabled && run.total.cycles > 0) {
        run.shard.linkBusyFraction = std::min(
            1.0, static_cast<double>(run.shard.linkBusyCycles) /
                     static_cast<double>(run.total.cycles));
        for (unsigned c = 0; c < run.shard.chips; ++c)
            run.shard.chipIds.push_back(c);
    }
    return run;
}

RunResult
serveTrace(const AccelConfig &config, const Dataset &dataset,
           const NetworkSpec &net, const RunOptions &opts,
           const ServeOptions &serve)
{
    return tryServeTrace(config, dataset, net, opts, serve)
        .orFatal();
}

Expected<std::vector<RunResult>>
tryServeAll(const std::vector<AccelConfig> &configs,
            const Dataset &dataset, const NetworkSpec &net,
            const RunOptions &opts, const ServeOptions &serve)
{
    // Personalities run serially: the batch fan-out inside each
    // trace is where the parallelism is, and serial personalities
    // keep the artifact cache's warm-path behaviour identical to a
    // one-personality serve.
    std::vector<RunResult> results;
    results.reserve(configs.size());
    for (const AccelConfig &config : configs) {
        Expected<RunResult> run =
            tryServeTrace(config, dataset, net, opts, serve);
        if (!run.ok())
            return run.error();
        results.push_back(std::move(run.value()));
    }
    return results;
}

} // namespace sgcn
