#include "accel/report.hh"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <variant>

#include "sim/logging.hh"

namespace sgcn
{

namespace
{

/** The part of a RunResult an exported quantity belongs to. */
enum class Section : std::uint8_t
{
    Run,
    Pipeline,
    Shard,
    Fault,
    Serve,
};

/** One exported value: a count, a measurement or a label. */
using Value = std::variant<std::uint64_t, double, std::string>;

/** One exported quantity. An empty csv name keeps it out of the CSV
 *  and an empty stat key out of --stats. Labels are CSV-only, and a
 *  label cell is empty when the run has its section off. */
struct Column
{
    Section section;
    std::string csv;
    std::string stat;
    std::function<Value(const RunResult &)> read;
};

/** Every exported quantity, in CSV column order. */
std::vector<Column>
makeColumns()
{
    using enum Section;
    using R = const RunResult &;
    std::vector<Column> columns{
        {Run, "accel", "", [](R r) { return r.accelName; }},
        {Run, "dataset", "", [](R r) { return r.datasetAbbrev; }},
        {Run, "cycles", "cycles", [](R r) { return r.total.cycles; }},
        {Run, "agg_cycles", "cycles.aggregation",
         [](R r) { return r.total.aggCycles; }},
        {Run, "comb_cycles", "cycles.combination",
         [](R r) { return r.total.combCycles; }},
        {Run, "lines_total", "offchip.lines",
         [](R r) { return r.total.traffic.totalLines(); }},
    };
    for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
        const auto cls = static_cast<TrafficClass>(c);
        const std::string name = trafficClassName(cls);
        columns.push_back(
            {Run, "lines_" + name, "offchip.lines." + name,
             [cls](R r) { return r.total.traffic.classLines(cls); }});
    }
    columns.insert(columns.end(), {
        {Run, "cache_accesses", "cache.accesses",
         [](R r) { return r.total.cacheAccesses; }},
        {Run, "cache_hits", "cache.hits",
         [](R r) { return r.total.cacheHits; }},
        {Run, "", "cache.hit_rate", [](R r) { return r.cacheHitRate(); }},
        {Run, "macs", "compute.macs", [](R r) { return r.total.macs; }},
        {Run, "bw_util", "dram.bw_util",
         [](R r) { return r.total.bwUtil; }},
        {Run, "energy_compute_j", "energy.compute_j",
         [](R r) { return r.energy.computeJ; }},
        {Run, "energy_cache_j", "energy.cache_j",
         [](R r) { return r.energy.cacheJ; }},
        {Run, "energy_dram_j", "energy.dram_j",
         [](R r) { return r.energy.dramJ; }},
        {Run, "", "energy.total_j", [](R r) { return r.energy.total(); }},
        {Run, "tdp_w", "power.tdp_w", [](R r) { return r.tdpWatts; }},
        {Run, "area_mm2", "area.mm2", [](R r) { return r.areaMm2; }},

        {Pipeline, "pipelined", "",
         [](R r) { return std::uint64_t{r.pipeline.enabled}; }},
        {Pipeline, "pipeline_gating", "",
         [](R r) { return pipelineGatingName(r.pipeline.gating); }},
        {Pipeline, "serial_cycles", "pipeline.serial_cycles",
         [](R r) { return r.pipeline.serialCycles; }},
        {Pipeline, "overlap_saved_cycles", "pipeline.overlap_saved_cycles",
         [](R r) { return r.pipeline.overlapSavedCycles; }},
        {Pipeline, "per_layer_cycles", "pipeline.per_layer_cycles",
         [](R r) { return r.pipeline.perLayerCycles; }},
        {Pipeline, "per_tile_cycles", "pipeline.per_tile_cycles",
         [](R r) { return r.pipeline.perTileCycles; }},
        {Pipeline, "tile_saved_cycles", "pipeline.tile_saved_cycles",
         [](R r) { return r.pipeline.tileSavedCycles; }},
        {Pipeline, "steady_advance_cycles", "pipeline.steady_advance_cycles",
         [](R r) { return r.pipeline.steadyStateAdvance; }},
        {Pipeline, "critical_phase", "",
         [](R r) { return layerPhaseName(r.pipeline.criticalPhase); }},

        {Shard, "chips", "shard.chips", [](R r) { return r.shard.chips; }},
        {Shard, "partition_policy", "",
         [](R r) { return r.shard.partitionPolicy; }},
        {Shard, "link", "", [](R r) { return r.shard.linkName; }},
        {Shard, "halo_vertices", "shard.halo_vertices",
         [](R r) { return r.shard.haloVertices; }},
        {Shard, "exchange_bytes", "shard.exchange_bytes",
         [](R r) { return r.shard.exchangeBytes; }},
        {Shard, "exchange_cycles", "shard.exchange_cycles",
         [](R r) { return r.shard.exchangeCycles; }},
        {Shard, "link_busy_cycles", "shard.link_busy_cycles",
         [](R r) { return r.shard.linkBusyCycles; }},
        {Shard, "link_busy_frac", "shard.link_busy_frac",
         [](R r) { return r.shard.linkBusyFraction; }},
        {Shard, "bottleneck_chip_cycles", "shard.bottleneck_chip_cycles",
         [](R r) { return r.shard.bottleneckChipCycles; }},

        {Fault, "faults", "",
         [](R r) { return std::uint64_t{r.faults.enabled}; }},
        // The canonical spec separates clauses with ','; re-separate
        // them with ';' so the cell keeps the row's arity.
        {Fault, "fault_spec", "",
         [](R r) {
             std::string spec = r.faults.spec;
             std::replace(spec.begin(), spec.end(), ',', ';');
             return spec;
         }},
        {Fault, "fault_seed", "", [](R r) { return r.faults.seed; }},
        {Fault, "degraded_mode", "",
         [](R r) { return r.faults.degradedMode; }},
        {Fault, "link_retries", "fault.link_retries",
         [](R r) { return r.faults.linkRetries; }},
        {Fault, "backoff_cycles", "fault.backoff_cycles",
         [](R r) { return r.faults.backoffCycles; }},
        {Fault, "link_timeouts", "fault.link_timeouts",
         [](R r) { return r.faults.timeouts; }},
        {Fault, "dram_retries", "fault.dram_retries",
         [](R r) { return r.faults.dramRetries; }},
        {Fault, "stall_cycles", "fault.stall_cycles",
         [](R r) { return r.faults.stallCycles; }},
        {Fault, "recovery_cycles", "fault.recovery_cycles",
         [](R r) { return r.faults.recoveryCycles; }},
        {Fault, "failed_chips", "fault.failed_chips",
         [](R r) { return r.faults.failedChips; }},
        {Fault, "surviving_chips", "fault.surviving_chips",
         [](R r) { return r.faults.survivingChips; }},
        {Fault, "repartitions", "fault.repartitions",
         [](R r) { return r.faults.repartitions; }},
        {Fault, "", "fault.recovered_layers",
         [](R r) { return r.faults.recoveredLayers.size(); }},

        {Serve, "serve_requests", "serve.requests",
         [](R r) { return r.serve.requests; }},
        {Serve, "serve_batches", "serve.batches",
         [](R r) { return r.serve.batches; }},
        {Serve, "serve_arrival", "",
         [](R r) { return r.serve.poisson ? "poisson" : "fixed"; }},
        {Serve, "serve_offered_qps", "serve.offered_qps",
         [](R r) { return r.serve.offeredQps; }},
        {Serve, "serve_max_batch", "", [](R r) { return r.serve.maxBatch; }},
        {Serve, "serve_linger_cycles", "",
         [](R r) { return r.serve.maxLingerCycles; }},
        {Serve, "serve_p50_cycles", "serve.p50_cycles",
         [](R r) { return r.serve.p50Cycles; }},
        {Serve, "serve_p95_cycles", "serve.p95_cycles",
         [](R r) { return r.serve.p95Cycles; }},
        {Serve, "serve_p99_cycles", "serve.p99_cycles",
         [](R r) { return r.serve.p99Cycles; }},
        {Serve, "serve_qps", "serve.sustained_qps",
         [](R r) { return r.serve.sustainedQps; }},
        {Serve, "serve_mean_batch", "serve.mean_batch",
         [](R r) { return r.serve.meanOccupancy; }},
        {Serve, "serve_peak_batch", "serve.peak_batch",
         [](R r) { return r.serve.peakOccupancy; }},
        {Serve, "serve_makespan_cycles", "serve.makespan_cycles",
         [](R r) { return r.serve.makespanCycles; }},
        {Serve, "serve_subgraph_vertices", "serve.subgraph_vertices",
         [](R r) { return r.serve.subgraphVertices; }},
        {Serve, "serve_subgraph_edges", "serve.subgraph_edges",
         [](R r) { return r.serve.subgraphEdges; }},
    });
    return columns;
}

/** The column table every export walks. */
const std::vector<Column> &
resultColumns()
{
    static const std::vector<Column> columns = makeColumns();
    return columns;
}

/** True when @p run has @p section on. */
bool
sectionOn(const RunResult &run, Section section)
{
    switch (section) {
      case Section::Run:
        return true;
      case Section::Pipeline:
        return run.pipeline.enabled;
      case Section::Shard:
        return run.shard.enabled;
      case Section::Fault:
        return run.faults.enabled;
      case Section::Serve:
        return run.serve.enabled;
    }
    return false;
}

/** Run, pipeline and shard columns are always written. Fault and
 *  serve columns are written when any run has the section on — then
 *  on every row, so mixed sweeps stay rectangular while plain sweep
 *  CSVs keep their narrower shape. */
bool
csvWrites(Section section, const std::vector<RunResult> &runs)
{
    if (section != Section::Fault && section != Section::Serve)
        return true;
    return std::any_of(runs.begin(), runs.end(),
                       [section](const RunResult &run) {
                           return sectionOn(run, section);
                       });
}

} // anonymous namespace

void
writeRunsCsv(const std::vector<RunResult> &runs, std::ostream &out)
{
    std::vector<const Column *> columns;
    for (const Column &column : resultColumns()) {
        if (!column.csv.empty() && csvWrites(column.section, runs))
            columns.push_back(&column);
    }
    const char *sep = "";
    for (const Column *column : columns) {
        out << sep << column->csv;
        sep = ",";
    }
    out << '\n';
    for (const RunResult &run : runs) {
        sep = "";
        for (const Column *column : columns) {
            out << sep;
            const Value value = column->read(run);
            if (!std::holds_alternative<std::string>(value) ||
                sectionOn(run, column->section)) {
                std::visit([&out](const auto &v) { out << v; }, value);
            }
            sep = ",";
        }
        out << '\n';
    }
}

void
writeRunsCsv(const std::vector<RunResult> &runs,
             const std::string &path)
{
    std::ofstream out(path);
    writeRunsCsv(runs, out);
    // Checked after close: a full device fails only at the flush.
    out.close();
    if (!out)
        fatal("cannot write CSV: ", path);
}

StatSet
runResultStats(const RunResult &run)
{
    StatSet stats;
    for (const Column &column : resultColumns()) {
        if (column.stat.empty() || !sectionOn(run, column.section))
            continue;
        const Value value = column.read(run);
        if (const auto *count = std::get_if<std::uint64_t>(&value))
            stats[column.stat] = static_cast<double>(*count);
        else
            stats[column.stat] = std::get<double>(value);
    }
    return stats;
}

std::string
pipelineSummaryLine(const RunResult &run)
{
    if (!run.pipeline.enabled)
        return "";
    std::ostringstream os;
    os << run.accelName << ": " << run.pipeline.pipelinedCycles
       << " cycles pipelined (" << pipelineGatingName(run.pipeline.gating)
       << ") vs " << run.pipeline.serialCycles << " serial (saved "
       << run.pipeline.overlapSavedCycles << ", per-tile wins "
       << run.pipeline.tileSavedCycles
       << " over per-layer, steady-state advance "
       << run.pipeline.steadyStateAdvance << "/layer, critical phase "
       << layerPhaseName(run.pipeline.criticalPhase) << ")";
    return os.str();
}

std::string
shardSummaryLine(const RunResult &run)
{
    if (!run.shard.enabled)
        return "";
    std::ostringstream os;
    os << run.accelName << ": " << run.shard.chips << " chips ("
       << run.shard.partitionPolicy << " over " << run.shard.linkName
       << "), " << run.shard.haloVertices << " halo vertices, "
       << static_cast<double>(run.shard.exchangeBytes) / 1.0e6
       << " MB exchanged in " << run.shard.exchangeCycles
       << " cycles, link busy "
       << run.shard.linkBusyFraction * 100.0
       << "%, bottleneck chip " << run.shard.bottleneckChipCycles
       << " cycles";
    return os.str();
}

std::string
faultSummaryLine(const RunResult &run)
{
    if (!run.faults.enabled)
        return "";
    const FaultStats &f = run.faults;
    std::ostringstream os;
    os << run.accelName << ": faults=" << f.spec << " ("
       << f.degradedMode << "): " << f.linkRetries
       << " link retries (" << f.backoffCycles << " backoff cycles, "
       << f.timeouts << " timeouts), " << f.dramRetries
       << " DRAM retries, " << f.stallCycles << " stall cycles";
    if (f.failedChips > 0) {
        os << ", " << f.failedChips << " chip(s) failed -> "
           << f.survivingChips << " survivors ("
           << f.repartitions << " repartition(s), "
           << f.recoveryCycles << " recovery cycles)";
    }
    return os.str();
}

std::string
serveSummaryLine(const RunResult &run)
{
    if (!run.serve.enabled)
        return "";
    const ServeStats &s = run.serve;
    std::ostringstream os;
    os << run.accelName << ": " << s.requests << " requests in "
       << s.batches << " batches ("
       << (s.poisson ? "poisson" : "fixed") << " @ " << s.offeredQps
       << " qps offered, " << s.sustainedQps
       << " sustained), latency p50/p95/p99 = " << s.p50Cycles << '/'
       << s.p95Cycles << '/' << s.p99Cycles
       << " cycles, occupancy mean " << s.meanOccupancy << " peak "
       << s.peakOccupancy;
    return os.str();
}

namespace
{

void
writeLayerScheduleRows(std::ofstream &out, const RunResult &run,
                       unsigned layer, const LayerSchedule &schedule,
                       bool recovered_column)
{
    // Trailing "recovered" cell, present only when some exported run
    // replayed a layer on a post-repartition topology — fault-free
    // schedule CSVs stay byte-identical.
    const char *tail = "";
    if (recovered_column) {
        const auto &replayed = run.faults.recoveredLayers;
        const bool recovered =
            std::find(replayed.begin(), replayed.end(), layer) !=
            replayed.end();
        tail = recovered ? ",1" : ",0";
    }
    const auto phase = [&](LayerPhase p, const PhaseSpan &span) {
        out << run.accelName << ',' << run.datasetAbbrev << ','
            << layer << ",phase," << layerPhaseName(p) << ','
            << span.start << ',' << span.end << ',' << tail << '\n';
    };
    phase(LayerPhase::InputDma, schedule.inputDma);
    phase(LayerPhase::Aggregation, schedule.aggregation);
    phase(LayerPhase::Combination, schedule.combination);
    phase(LayerPhase::OutputDrain, schedule.outputDrain);
    for (const TileSpan &span : schedule.tileSpans) {
        out << run.accelName << ',' << run.datasetAbbrev << ','
            << layer << ",tile," << span.tile << ','
            << span.inputConsume.start << ',' << span.inputConsume.end
            << ',' << span.outputReady << tail << '\n';
    }
}

void
writeRunSchedule(std::ofstream &out, const RunResult &run,
                 const std::vector<unsigned> &sampled_layers,
                 bool recovered_column)
{
    if (run.inputLayer.schedule.criticalEnd() > 0) {
        writeLayerScheduleRows(out, run, 0, run.inputLayer.schedule,
                               recovered_column);
    }
    for (std::size_t i = 0; i < run.sampledLayers.size(); ++i) {
        const unsigned layer = i < sampled_layers.size()
                                   ? sampled_layers[i]
                                   : static_cast<unsigned>(i + 1);
        writeLayerScheduleRows(out, run, layer,
                               run.sampledLayers[i].schedule,
                               recovered_column);
    }
}

} // anonymous namespace

void
writeSchedulesCsv(const std::vector<RunResult> &runs,
                  const std::vector<unsigned> &sampled_layers,
                  const std::string &path)
{
    // Mirror writeRunsCsv's mixed-sweep policy: when any run
    // recovered, every row carries the column so arity stays uniform.
    bool any_recovered = false;
    for (const RunResult &run : runs) {
        any_recovered =
            any_recovered || !run.faults.recoveredLayers.empty();
    }
    std::ofstream out(path);
    out << "accel,dataset,layer,record,name,start,end,ready"
        << (any_recovered ? ",recovered\n" : "\n");
    for (const RunResult &run : runs)
        writeRunSchedule(out, run, sampled_layers, any_recovered);
    // Checked after close: a full device fails only at the flush.
    out.close();
    if (!out)
        fatal("cannot write schedule CSV: ", path);
}

} // namespace sgcn
