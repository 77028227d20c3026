/**
 * @file
 * Machine-readable result export: CSV rows and a gem5-style StatSet
 * dump for RunResults, so harness outputs can be plotted or diffed
 * without scraping the pretty tables.
 *
 * One ordered column table in report.cc lists every exported
 * quantity once: its section (run, pipeline, shard, fault or serve),
 * its CSV column name, its --stats key and how to read it from a
 * RunResult. writeRunsCsv and runResultStats both walk that table,
 * so a new quantity is one row, not three matching edits.
 */

#ifndef SGCN_ACCEL_REPORT_HH
#define SGCN_ACCEL_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "accel/result.hh"
#include "sim/stats.hh"

namespace sgcn
{

/** Write runs as CSV (header + one row per run). Run, pipeline and
 *  shard columns are always present; fault and serve columns are
 *  added — for every row, so mixed sweeps stay rectangular — when
 *  any run has the matching section enabled. */
void writeRunsCsv(const std::vector<RunResult> &runs, std::ostream &out);

/** writeRunsCsv into a file; exits 1 when the file cannot be opened
 *  or fully written. */
void writeRunsCsv(const std::vector<RunResult> &runs,
                  const std::string &path);

/** Flatten a run into named scalar statistics: the run section's
 *  keys always, another section's only when the run has it on. */
StatSet runResultStats(const RunResult &run);

/** One-line pipelining summary ("" when the run was serial). */
std::string pipelineSummaryLine(const RunResult &run);

/** One-line multi-chip summary ("" when the run was monolithic). */
std::string shardSummaryLine(const RunResult &run);

/** One-line fault summary ("" when the run was fault-free). */
std::string faultSummaryLine(const RunResult &run);

/** One-line serving summary ("" when the run served no trace). */
std::string serveSummaryLine(const RunResult &run);

/**
 * Write the runs' layer schedules as CSV (the ROADMAP Gantt export):
 * one row per phase span and one per tile span of the input layer
 * and every sampled intermediate layer of each run. Columns: accel,
 * dataset, layer (0 = input, else the architectural index), record
 * ("phase"/"tile"), name (phase name or tile index), start, end,
 * ready (tile rows only; empty for phases), and a trailing
 * "recovered" flag when any run replayed a layer after a chip
 * failure. Exits 1 when the file cannot be opened or fully written.
 */
void writeSchedulesCsv(const std::vector<RunResult> &runs,
                       const std::vector<unsigned> &sampled_layers,
                       const std::string &path);

} // namespace sgcn

#endif // SGCN_ACCEL_REPORT_HH
