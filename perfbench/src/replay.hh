/**
 * @file
 * Traced replay of the simulator's public run entry points.
 *
 * A Replay re-executes what tryRunNetwork and tryServeTrace do — the
 * same public per-layer calls in the same order (islandization,
 * workload preparation, LayerEngine::run, partitioning, halo-exchange
 * pricing, shard composition, batch sampling) — and records an
 * in-memory span around each call. The composition glue between
 * those calls (extrapolation, pipeline chaining, energy) is left to
 * the enclosing span, so a span's self time is the part of its
 * layer no child accounts for.
 *
 * The replay must reproduce the library's RunResult bit for bit;
 * canonicalForm() is the byte string the benchmark compares and
 * digests.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/runner.hh"
#include "accel/workload.hh"
#include "serve/serve.hh"

namespace perfbench
{

/** In-memory span recorder: name, parent, start and end, per pass. */
class Tracer
{
  public:
    struct Span
    {
        std::uint32_t name = 0;
        std::int32_t parent = -1;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::int32_t pass = 0;
    };

    /** Open a span under the innermost open one; returns its index. */
    std::int32_t open(const std::string &name);

    /** Close the span @p index (the innermost open one). */
    void close(std::int32_t index);

    /** Pass index stamped on spans opened from now on. */
    void setPass(std::int32_t pass) { currentPass = pass; }

    const std::vector<Span> &spans() const { return recorded; }
    const std::vector<std::string> &names() const { return nameTable; }

  private:
    std::int64_t nowNs() const;

    std::chrono::steady_clock::time_point origin =
        std::chrono::steady_clock::now();
    std::unordered_map<std::string, std::uint32_t> nameIds;
    std::vector<std::string> nameTable;
    std::vector<Span> recorded;
    std::vector<std::int32_t> openStack;
    std::int32_t currentPass = 0;
};

/** RAII span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const std::string &name)
        : tracer(tracer), index(tracer ? tracer->open(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer)
            tracer->close(index);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer;
    std::int32_t index;
};

/** Simulated work counts summed over replayed engine runs. */
using Counters = std::map<std::string, double>;

/** Traced re-execution of runNetwork / serveTrace; see file comment. */
class Replay
{
  public:
    Replay(Tracer &tracer, Counters &counters)
        : tracer(tracer), counters(counters)
    {
    }

    /** tryRunNetwork without fault plans (chips = 1 or sharded). */
    sgcn::RunResult network(const sgcn::AccelConfig &config,
                            const sgcn::Dataset &dataset,
                            const sgcn::NetworkSpec &net,
                            const sgcn::RunOptions &opts);

    /** tryServeTrace without fault plans. */
    sgcn::RunResult serve(const sgcn::AccelConfig &config,
                          const sgcn::Dataset &dataset,
                          const sgcn::NetworkSpec &net,
                          const sgcn::RunOptions &opts,
                          const sgcn::ServeOptions &serve);

    /** Output-check failures seen inside replayed runs (per-batch
     *  schedule invariants of served traces). */
    const std::vector<std::string> &failures() const { return problems; }

    /** Per-batch RunResults replayed so far (served traces). */
    std::uint64_t batchesChecked() const { return checkedBatches; }

  private:
    sgcn::LayerContext
    prepare(const char *what,
            const std::function<sgcn::LayerContext()> &make);
    sgcn::LayerResult engine(const sgcn::AccelConfig &config,
                             const sgcn::LayerContext &ctx,
                             sgcn::ExecutionMode mode);
    sgcn::RunResult monolithic(const sgcn::AccelConfig &config,
                               const sgcn::Dataset &dataset,
                               const sgcn::CsrGraph &graph,
                               const sgcn::NetworkSpec &net,
                               const sgcn::RunOptions &opts);
    sgcn::RunResult sharded(const sgcn::AccelConfig &config,
                            const sgcn::Dataset &dataset,
                            const sgcn::CsrGraph &graph,
                            const sgcn::NetworkSpec &net,
                            const sgcn::RunOptions &opts);

    Tracer &tracer;
    Counters &counters;
    std::vector<std::string> problems;
    std::uint64_t checkedBatches = 0;
};

/**
 * Every simulated statistic of @p run as a byte string (doubles by
 * bit pattern): two runs are bit-identical iff their forms are equal.
 */
std::string canonicalForm(const sgcn::RunResult &run);

/**
 * Schedule invariants of every simulated layer of @p run
 * (criticalEnd() == cycles, tileSpansWellFormed()) plus positive
 * totals; "" when they hold, else what broke.
 */
std::string checkRun(const sgcn::RunResult &run);

/** 64-bit FNV-1a of @p bytes, continuing from @p hash. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
