#include "accel/timing/stream_dma.hh"

#include <algorithm>

namespace sgcn
{

StreamDma::StreamDma(EngineContext &engine_ctx) : ec(engine_ctx) {}

void
StreamDma::addPlan(const AccessPlan &plan, MemOp op, TrafficClass cls)
{
    for (unsigned r = 0; r < plan.numRuns; ++r)
        runs.push_back(Run{plan.runs[r].addr, plan.runs[r].lines, op,
                           cls});
}

void
StreamDma::addRegion(Addr base, std::uint64_t lines, MemOp op,
                     TrafficClass cls)
{
    runs.push_back(Run{base, lines, op, cls});
}

void
StreamDma::start(std::function<void()> on_done)
{
    done = std::move(on_done);
    started = true;
    issue();
}

void
StreamDma::issue()
{
    while (outstanding < kWindow && !runs.empty()) {
        // Issue the whole window headroom of the front run as one
        // bulk access (per-line completions keep the window exact).
        // Line order and scheduler kicks match the old line-at-a-time
        // loop; in steady state the chunk degenerates to one line per
        // completion, exactly as before.
        const Run run = runs.front();
        const auto chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kWindow - outstanding,
                                    run.lines - cursor));
        const Addr first = run.addr + cursor * kCachelineBytes;
        outstanding += chunk;
        cursor += chunk;
        if (cursor == run.lines) {
            runs.pop_front();
            cursor = 0;
        }
        ec.dram.accessRun(first, chunk, run.op, run.cls,
                          MemCallback([this] {
                              --outstanding;
                              issue();
                          }));
    }
    if (started && runs.empty() && outstanding == 0 && done) {
        auto cb = std::move(done);
        done = nullptr;
        cb();
    }
}

} // namespace sgcn
