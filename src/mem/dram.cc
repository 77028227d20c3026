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
    : cfg(config), interleaveShift(log2Floor(cfg.interleaveBytes)),
      channelShift(log2Floor(cfg.channels)),
      rowShift(log2Floor(cfg.rowBytes)),
      bankShift(log2Floor(cfg.banksPerChannel)), events(queue)
{
    SGCN_ASSERT(isPowerOfTwo(cfg.channels) &&
                    isPowerOfTwo(cfg.banksPerChannel),
                "DRAM channels and banks per channel must be powers "
                "of two: ",
                cfg.channels, ", ", cfg.banksPerChannel);
    SGCN_ASSERT(isPowerOfTwo(cfg.interleaveBytes) &&
                cfg.interleaveBytes >= kCachelineBytes);
    SGCN_ASSERT(isPowerOfTwo(cfg.rowBytes) &&
                cfg.rowBytes >= cfg.interleaveBytes);
    channelState.resize(cfg.channels);
    for (auto &channel : channelState)
        channel.banks.resize(cfg.banksPerChannel);
}

void
Dram::Channel::push(const Key &key, Pending pending)
{
    // Reclaim the dead prefix rather than grow once it is at least
    // half the arrays: the live entries it moves are no more than
    // the entries taken since the last reclaim, so the cost is O(1)
    // amortized per request.
    if (head > 0 && keys.size() == keys.capacity() &&
        head * 2 >= keys.size()) {
        keys.erase(keys.begin(),
                   keys.begin() + static_cast<std::ptrdiff_t>(head));
        entries.erase(entries.begin(),
                      entries.begin() +
                          static_cast<std::ptrdiff_t>(head));
        head = 0;
    }
    keys.push_back(key);
    entries.push_back(std::move(pending));
}

Dram::Pending
Dram::Channel::take(std::size_t i)
{
    Key *key = keys.data() + head;
    Pending *entry = entries.data() + head;
    Pending taken = std::move(entry[i]);
    // Close the hole from the front: the i older entries shift one
    // slot back and the head slot falls dead.
    std::copy_backward(key, key + i, key + i + 1);
    std::move_backward(entry, entry + i, entry + i + 1);
    if (++head == keys.size()) {
        keys.clear();
        entries.clear();
        head = 0;
    }
    return taken;
}

std::uint64_t
Dram::channelLocal(Addr line_addr, unsigned &channel) const
{
    // Stripe addresses across channels at interleaveBytes, then lay
    // rows of rowBytes across banks within the channel. This keeps
    // consecutive slices of one vertex in the same row while spreading
    // independent vertices over channels (the in-place layout's
    // row-buffer-locality claim, SV-A).
    const std::uint64_t stripe = line_addr >> interleaveShift;
    channel = static_cast<unsigned>(stripe & (cfg.channels - 1));
    return ((stripe >> channelShift) << interleaveShift) |
           (line_addr & (cfg.interleaveBytes - 1));
}

Dram::Key
Dram::localKey(std::uint64_t local) const
{
    const std::uint64_t row_global = local >> rowShift;
    return Key{row_global >> bankShift,
               static_cast<unsigned>(row_global &
                                     (cfg.banksPerChannel - 1))};
}

void
Dram::access(const MemRequest &request, MemCallback done)
{
    SGCN_ASSERT(isAligned(request.lineAddr, kCachelineBytes),
                "DRAM request not line-aligned: ", request.lineAddr);
    counters.add(request.op, request.cls);
    ++outstanding;
    unsigned channel_idx;
    const Key key = localKey(channelLocal(request.lineAddr, channel_idx));
    channelState[channel_idx].push(key, Pending{request, std::move(done)});
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
        unsigned channel_idx;
        std::uint64_t local = channelLocal(line, channel_idx);
        Key key = localKey(local);
        Channel &channel = channelState[channel_idx];
        for (std::uint32_t i = 0; i < chunk; ++i) {
            const Addr line_addr =
                line + static_cast<Addr>(i) * kCachelineBytes;
            if (i > 0) {
                local += kCachelineBytes;
                if ((local & (cfg.rowBytes - 1)) == 0)
                    key = localKey(local);
            }
            channel.push(key, Pending{MemRequest{line_addr, op, cls},
                                      BurstPool::part(node)});
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
    if (channel.schedulerActive || channel.depth() == 0)
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
    if (channel.depth() == 0)
        return;

    const Cycle now = events.now();

    // FR-FCFS over *ready* requests: a request can issue only when
    // its bank has finished its previous row cycle. Within the scan
    // window, prefer the oldest ready row-buffer hit, then the
    // oldest ready request of any kind. If nothing is ready, sleep
    // until the earliest bank frees up.
    const std::size_t window =
        std::min<std::size_t>(channel.depth(), cfg.schedWindow);
    const Cycle faw_ready = fawReadyAt(channel);
    std::size_t pick = window; // invalid
    bool pick_is_hit = false;
    Cycle earliest_ready = std::numeric_limits<Cycle>::max();
    for (std::size_t i = 0; i < window; ++i) {
        const Key &key = channel.key(i);
        const Bank &bank = channel.banks[key.bank];
        const bool hit = bank.rowOpen && bank.openRow == key.row;
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
            std::min<std::size_t>(channel.depth(), cfg.schedWindow);
        std::size_t candidate = window2;
        unsigned candidate_bank = 0;
        std::uint64_t candidate_row = 0;
        for (std::size_t i = 0; i < window2 && candidate == window2;
             ++i) {
            const Key &key = channel.key(i);
            const Bank &bank = channel.banks[key.bank];
            if (bank.readyAt > now)
                continue;
            if (bank.rowOpen && bank.openRow == key.row)
                continue; // a hit; the CAS path will take it
            candidate = i;
            candidate_bank = key.bank;
            candidate_row = key.row;
        }
        if (candidate != window2) {
            Bank &bank = channel.banks[candidate_bank];
            bool open_row_still_wanted = false;
            if (bank.rowOpen) {
                for (std::size_t i = 0; i < window2; ++i) {
                    const Key &key = channel.key(i);
                    if (key.bank == candidate_bank &&
                        key.row == bank.openRow) {
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

    if (channel.depth() != 0) {
        channel.schedulerActive = true;
        events.schedule(now + 1,
                        [this, channel_idx] { dispatch(channel_idx); });
    }
}

void
Dram::issueRequest(Channel &channel, std::size_t pick)
{
    const Cycle now = events.now();
    const Key key = channel.key(pick);
    Pending pending = channel.take(pick);

    const std::uint64_t row = key.row;
    Bank &bank = channel.banks[key.bank];

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
        channel.push(key, std::move(pending));
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
