#include "mem/dram.hh"

#include <algorithm>

#include "sim/fault/fault.hh"
#include "sim/logging.hh"

namespace sgcn
{

DramConfig
DramConfig::hbm2()
{
    DramConfig config;
    config.name = "HBM2";
    config.burstCycles = 2;
    return config;
}

DramConfig
DramConfig::hbm1()
{
    DramConfig config;
    config.name = "HBM1";
    config.generation = DramGeneration::Hbm1;
    // Half the per-channel bandwidth of HBM2: 128 GB/s peak.
    config.burstCycles = 4;
    return config;
}

Dram::Dram(const DramConfig &config, EventQueue &queue)
    : cfg(config), events(queue)
{
    SGCN_ASSERT(cfg.channels > 0 && cfg.banksPerChannel > 0);
    SGCN_ASSERT(isPowerOfTwo(cfg.interleaveBytes) &&
                cfg.interleaveBytes >= kCachelineBytes);
    SGCN_ASSERT(isPowerOfTwo(cfg.rowBytes) &&
                cfg.rowBytes >= cfg.interleaveBytes);
    channelState.resize(cfg.channels);
    for (auto &channel : channelState)
        channel.banks.resize(cfg.banksPerChannel);
}

void
Dram::decode(Addr line_addr, unsigned &channel, unsigned &bank,
             std::uint64_t &row) const
{
    // Stripe addresses across channels at interleaveBytes, then lay
    // rows of rowBytes across banks within the channel. This keeps
    // consecutive slices of one vertex in the same row while spreading
    // independent vertices over channels (the in-place layout's
    // row-buffer-locality claim, SV-A).
    const std::uint64_t stripe = line_addr / cfg.interleaveBytes;
    channel = static_cast<unsigned>(stripe % cfg.channels);
    const std::uint64_t local =
        (stripe / cfg.channels) * cfg.interleaveBytes +
        (line_addr % cfg.interleaveBytes);
    const std::uint64_t row_global = local / cfg.rowBytes;
    bank = static_cast<unsigned>(row_global % cfg.banksPerChannel);
    row = row_global / cfg.banksPerChannel;
}

unsigned
Dram::decodeChannel(Addr line_addr) const
{
    return static_cast<unsigned>((line_addr / cfg.interleaveBytes) %
                                 cfg.channels);
}

void
Dram::access(const MemRequest &request, MemCallback done)
{
    SGCN_ASSERT(isAligned(request.lineAddr, kCachelineBytes),
                "DRAM request not line-aligned: ", request.lineAddr);
    counters.add(request.op, request.cls);
    ++outstanding;
    unsigned channel_idx, bank_idx;
    std::uint64_t row;
    decode(request.lineAddr, channel_idx, bank_idx, row);
    channelState[channel_idx].queue.push_back(Pending{
        request, std::move(done), events.now(), bank_idx, row});
    activateScheduler(channel_idx);
}

void
Dram::enqueueRun(Addr first_line, std::uint32_t lines, MemOp op,
                 TrafficClass cls, BurstPool::Node *node)
{
    SGCN_ASSERT(isAligned(first_line, kCachelineBytes),
                "DRAM run not line-aligned: ", first_line);
    counters.add(op, cls, lines);
    outstanding += lines;
    const Cycle now = events.now();
    Addr line = first_line;
    std::uint32_t remaining = lines;
    while (remaining > 0) {
        // Lines up to the next channel-interleave boundary share a
        // channel and advance contiguously through that channel's
        // local address space: decode the chunk's first line, then
        // derive bank/row incrementally (they change only when the
        // local address crosses a row boundary, which row-sized
        // power-of-two geometry makes an exact alignment test).
        // Scheduler kicks stay in per-line order because a push
        // alone never schedules an event.
        const Addr boundary =
            alignDown(line, cfg.interleaveBytes) + cfg.interleaveBytes;
        const std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(remaining,
                                    (boundary - line) /
                                        kCachelineBytes));
        unsigned channel_idx, bank_idx;
        std::uint64_t row;
        decode(line, channel_idx, bank_idx, row);
        const std::uint64_t stripe = line / cfg.interleaveBytes;
        std::uint64_t local =
            (stripe / cfg.channels) * cfg.interleaveBytes +
            (line % cfg.interleaveBytes);
        Channel &channel = channelState[channel_idx];
        for (std::uint32_t i = 0; i < chunk; ++i) {
            const Addr line_addr =
                line + static_cast<Addr>(i) * kCachelineBytes;
            if (i > 0) {
                local += kCachelineBytes;
                if ((local & (cfg.rowBytes - 1)) == 0) {
                    const std::uint64_t row_global =
                        local / cfg.rowBytes;
                    bank_idx = static_cast<unsigned>(
                        row_global % cfg.banksPerChannel);
                    row = row_global / cfg.banksPerChannel;
                }
            }
            channel.queue.push_back(
                Pending{MemRequest{line_addr, op, cls},
                        BurstPool::part(node), now, bank_idx, row});
        }
        activateScheduler(channel_idx);
        line += static_cast<Addr>(chunk) * kCachelineBytes;
        remaining -= chunk;
    }
}

void
Dram::accessBurst(const AccessPlan &plan, MemOp op, TrafficClass cls,
                  MemCallback done)
{
    const std::uint64_t total = plan.totalLines();
    if (total == 0) {
        if (done)
            done();
        return;
    }
    BurstPool::Node *node =
        bursts.join(static_cast<std::uint32_t>(total), std::move(done));
    for (unsigned r = 0; r < plan.numRuns; ++r)
        enqueueRun(plan.runs[r].addr, plan.runs[r].lines, op, cls,
                   node);
}

void
Dram::accessRun(Addr first_line, std::uint32_t lines, MemOp op,
                TrafficClass cls, MemCallback each)
{
    if (lines == 0)
        return;
    BurstPool::Node *node = bursts.fanout(lines, std::move(each));
    enqueueRun(first_line, lines, op, cls, node);
}

void
Dram::activateScheduler(unsigned channel_idx)
{
    Channel &channel = channelState[channel_idx];
    if (channel.schedulerActive || channel.queue.empty())
        return;
    channel.schedulerActive = true;
    events.schedule(events.now(),
                    [this, channel_idx] { dispatch(channel_idx); });
}

void
Dram::dispatch(unsigned channel_idx)
{
    Channel &channel = channelState[channel_idx];
    channel.schedulerActive = false;
    if (channel.queue.empty())
        return;

    const Cycle now = events.now();

    // FR-FCFS over *ready* requests: a request can issue only when
    // its bank has finished its previous row cycle. Within the scan
    // window, prefer the oldest ready row-buffer hit, then the
    // oldest ready request of any kind. If nothing is ready, sleep
    // until the earliest bank frees up.
    const std::size_t window =
        std::min<std::size_t>(channel.queue.size(), cfg.schedWindow);
    const Cycle faw_ready = fawReadyAt(channel);
    std::size_t pick = window; // invalid
    bool pick_is_hit = false;
    Cycle earliest_ready = std::numeric_limits<Cycle>::max();
    for (std::size_t i = 0; i < window; ++i) {
        const Pending &pending = channel.queue[i];
        const Bank &bank = channel.banks[pending.bank];
        const bool hit = bank.rowOpen && bank.openRow == pending.row;
        // A miss needs an activate slot (tFAW) on top of the bank.
        const Cycle ready_at =
            hit ? bank.readyAt : std::max(bank.readyAt, faw_ready);
        earliest_ready = std::min(earliest_ready, ready_at);
        if (ready_at > now)
            continue;
        if (hit) {
            pick = i;
            pick_is_hit = true;
            break;
        }
        if (pick == window)
            pick = i;
    }

    if (pick == window) {
        // No bank ready: retry when the earliest one frees.
        channel.schedulerActive = true;
        events.schedule(std::max(earliest_ready, now + 1),
                        [this, channel_idx] { dispatch(channel_idx); });
        return;
    }

    issueRequest(channel, pick);

    // The command bus can carry an activate alongside the column
    // command: open the row for the oldest miss to another ready
    // bank so row transitions overlap with ongoing bursts — but
    // never close a row that still has visible pending hits, and
    // only within the activate budget (tFAW).
    if (pick_is_hit && fawReadyAt(channel) <= now) {
        const std::size_t window2 =
            std::min<std::size_t>(channel.queue.size(),
                                  cfg.schedWindow);
        std::size_t candidate = window2;
        unsigned candidate_bank = 0;
        std::uint64_t candidate_row = 0;
        for (std::size_t i = 0; i < window2 && candidate == window2;
             ++i) {
            const Pending &pending = channel.queue[i];
            Bank &bank = channel.banks[pending.bank];
            if (bank.readyAt > now)
                continue;
            if (bank.rowOpen && bank.openRow == pending.row)
                continue; // a hit; the CAS path will take it
            candidate = i;
            candidate_bank = pending.bank;
            candidate_row = pending.row;
        }
        if (candidate != window2) {
            Bank &bank = channel.banks[candidate_bank];
            bool open_row_still_wanted = false;
            if (bank.rowOpen) {
                for (std::size_t i = 0; i < window2; ++i) {
                    const Pending &pending = channel.queue[i];
                    if (pending.bank == candidate_bank &&
                        pending.row == bank.openRow) {
                        open_row_still_wanted = true;
                        break;
                    }
                }
            }
            if (!open_row_still_wanted) {
                const Cycle activate_done =
                    (bank.rowOpen ? cfg.tRp : 0) + cfg.tRcd;
                bank.rowOpen = true;
                bank.openRow = candidate_row;
                bank.readyAt = now + activate_done;
                recordActivate(channel, now);
            }
        }
    }

    if (!channel.queue.empty()) {
        channel.schedulerActive = true;
        const unsigned channel_idx2 = static_cast<unsigned>(
            &channel - channelState.data());
        events.schedule(now + 1, [this, channel_idx2] {
            dispatch(channel_idx2);
        });
    }
}

void
Dram::issueRequest(Channel &channel, std::size_t pick)
{
    const Cycle now = events.now();
    Pending pending = std::move(channel.queue[pick]);
    channel.queue.erase(channel.queue.begin() +
                        static_cast<std::ptrdiff_t>(pick));

    const std::uint64_t row = pending.row;
    Bank &bank = channel.banks[pending.bank];

    Cycle access_latency;
    if (bank.rowOpen && bank.openRow == row) {
        ++rowHitCount;
        access_latency = cfg.tCl;
        // Back-to-back CAS to the open row pipelines at burst rate.
        bank.readyAt = now + cfg.burstCycles;
    } else {
        ++rowMissCount;
        const Cycle activate_done =
            (bank.rowOpen ? cfg.tRp : 0) + cfg.tRcd;
        access_latency = activate_done + cfg.tCl;
        bank.rowOpen = true;
        bank.openRow = row;
        // Further CAS to the newly opened row can issue once the
        // activate completes; they need not wait for this access's
        // data.
        bank.readyAt = now + activate_done;
        recordActivate(channel, now);
    }

    // Banks work in parallel; only data bursts serialize on the
    // channel's data bus.
    const Cycle data_start =
        std::max(now + access_latency, channel.busFreeAt);
    const Cycle data_end = data_start + cfg.burstCycles;
    channel.busFreeAt = data_end;
    busBusy += cfg.burstCycles;

    // Fault injection: a transient error wastes this attempt (the
    // bank cycle and bus burst above are already booked) and re-rides
    // the normal queue path. Bounded per request; the decision is a
    // pure hash over a per-device sequence, so a chip's retry
    // timeline is identical at any --jobs.
    if (cfg.transientRetryProb > 0.0 &&
        pending.attempts < cfg.maxTransientRetries &&
        FaultInjector::hashUniform(cfg.retrySeed,
                                   pending.request.lineAddr,
                                   retrySeq++) <
            cfg.transientRetryProb) {
        ++retryCount;
        ++pending.attempts;
        channel.queue.push_back(std::move(pending));
        return;
    }

    MemCallback done = std::move(pending.done);
    events.schedule(data_end, [this, done = std::move(done)]() mutable {
        --outstanding;
        if (done)
            done();
    });
}

Cycle
Dram::fawReadyAt(const Channel &channel) const
{
    if (channel.activateCount < 4)
        return 0;
    // The oldest of the last four activates gates the next one.
    const Cycle oldest = channel.recentActivates[channel.activateCursor];
    return oldest + cfg.tFaw;
}

void
Dram::recordActivate(Channel &channel, Cycle when)
{
    channel.recentActivates[channel.activateCursor] = when;
    channel.activateCursor = (channel.activateCursor + 1) % 4;
    ++channel.activateCount;
}

double
Dram::bandwidthUtilization(Cycle window) const
{
    if (window == 0)
        return 0.0;
    const double capacity =
        static_cast<double>(cfg.channels) * static_cast<double>(window);
    return static_cast<double>(busBusy) / capacity;
}

} // namespace sgcn
