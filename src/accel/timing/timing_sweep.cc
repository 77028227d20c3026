#include "accel/timing/timing_sweep.hh"

namespace sgcn
{

SweepPick
nextPick(const EngineContext &ec, SweepCursor &at, unsigned passes,
         unsigned engine)
{
    const auto &src_begin = ec.sweepSrcBegin;
    while (at.srcTile + 1 < src_begin.size()) {
        if (at.entry == src_begin[at.srcTile + 1]) {
            // Pass over: replay the source tile's runs for the next
            // one, or move on to the next source tile.
            if (++at.pass == passes) {
                at.pass = 0;
                ++at.srcTile;
            }
            at.entry = src_begin[at.srcTile];
            continue;
        }
        const EngineContext::SweepEntry &run = ec.sweepEntries[at.entry];
        if (engine != kAnyEngine && run.engine != engine) {
            ++at.entry;
            continue;
        }
        const SweepPick pick{&run,
                             ec.sweepPicks[run.pickBegin + at.pick],
                             at.pass, at.pick == 0};
        if (++at.pick == run.walk) {
            at.pick = 0;
            ++at.entry;
        }
        return pick;
    }
    return {};
}

} // namespace sgcn
