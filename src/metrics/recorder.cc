#include "metrics/recorder.hh"

#include <algorithm>
#include <cmath>

namespace mmr
{

void
ConnectionRecorder::record(double delay_cycles, bool measured)
{
    ++flits;
    if (measured) {
        delayStat.add(delay_cycles);
        if (haveLast)
            jitterStat.add(std::fabs(delay_cycles - lastDelay));
    }
    lastDelay = delay_cycles;
    haveLast = true;
}

// mmr-lint: allow(hot-path-alloc) grows once per newly observed
// connection (geometric resize / overflow insert); steady-state
// measurement hits existing slots only.
ConnectionRecorder &
MetricsRecorder::slot(ConnId conn)
{
    if (conn < kDirectConns) {
        if (direct.size() <= conn) {
            // Grow geometrically so steady state sees no resizes.
            const std::size_t want = static_cast<std::size_t>(conn) + 1;
            direct.resize(std::min<std::size_t>(
                kDirectConns,
                std::max<std::size_t>(want, direct.size() * 2)));
        }
        return direct[conn];
    }
    return overflow[conn];
}

const ConnectionRecorder *
MetricsRecorder::lookup(ConnId conn) const
{
    if (conn < kDirectConns) {
        if (conn < direct.size() && direct[conn].touched())
            return &direct[conn];
        return nullptr;
    }
    return overflow.find(conn);
}

void
MetricsRecorder::recordDeparture(ConnId conn, Cycle now,
                                 double delay_cycles,
                                 TrafficClass klass,
                                 const StageSample *stages)
{
    const bool measured = measuring(now);
    slot(conn).record(delay_cycles, measured);
    if (!measured)
        return;
    delaySketch.add(delay_cycles);

    const auto k = static_cast<std::size_t>(klass);
    const auto delay = static_cast<std::uint64_t>(
        delay_cycles > 0.0 ? delay_cycles : 0.0);
    classDelayHist[k].record(delay);

    QosCounters &q = qosByClass[k];
    if (q.budgetCycles > 0) {
        ++q.flits;
        if (delay > q.budgetCycles) {
            ++q.violations;
            const Cycle excess = delay - q.budgetCycles;
            if (excess > q.worstExcessCycles)
                q.worstExcessCycles = excess;
        }
    }

    if (stages != nullptr) {
        stageHist[static_cast<std::size_t>(LatencyStage::SourceQueue)]
            .record(stages->sourceQueue);
        stageHist[static_cast<std::size_t>(LatencyStage::VcResidency)]
            .record(stages->vcResidency);
        stageHist[static_cast<std::size_t>(LatencyStage::ArbWait)]
            .record(stages->arbWait);
        stageHist[static_cast<std::size_t>(
                      LatencyStage::SwitchTraversal)]
            .record(stages->switchTraversal);
    }
}

void
MetricsRecorder::recordLinkTransits(Cycle transit_cycles,
                                    std::uint64_t hops, Cycle now)
{
    if (!measuring(now))
        return;
    stageHist[static_cast<std::size_t>(LatencyStage::LinkTransit)]
        .record(transit_cycles, hops);
}

void
MetricsRecorder::setQosBudget(TrafficClass klass, Cycle budget_cycles)
{
    qosByClass[static_cast<std::size_t>(klass)].budgetCycles =
        budget_cycles;
}

void
MetricsRecorder::recordOutputSlot(bool used, Cycle now)
{
    if (!measuring(now))
        return;
    if (used)
        outputSlots.addHit();
    else
        outputSlots.addMiss();
}

void
MetricsRecorder::recordOutputSlots(unsigned flits, unsigned ports,
                                   Cycle now)
{
    if (!measuring(now))
        return;
    outputSlots.addHit(flits);
    if (ports > flits)
        outputSlots.addMiss(ports - flits);
}

void
MetricsRecorder::releaseConnection(ConnId conn)
{
    if (conn < kDirectConns) {
        if (conn >= direct.size() || !direct[conn].touched())
            return;
        retiredDelay.merge(direct[conn].delay());
        retiredJitter.merge(direct[conn].jitter());
        direct[conn] = ConnectionRecorder{};
    } else {
        const ConnectionRecorder *rec = overflow.find(conn);
        if (rec == nullptr)
            return;
        retiredDelay.merge(rec->delay());
        retiredJitter.merge(rec->jitter());
        overflow.erase(conn);
    }
    ++retiredConns;
}

double
MetricsRecorder::meanDelayCycles() const
{
    // Merge in sorted connection order: StreamStat::merge is floating
    // point and therefore not associative, so unordered_map iteration
    // order must not leak into reported results (determinism audit).
    // Retired connections were folded in release order, which callers
    // keep deterministic; they seed the aggregate.
    StreamStat all = retiredDelay;
    for (ConnId conn : connections())
        all.merge(lookup(conn)->delay());
    return all.mean();
}

double
MetricsRecorder::meanJitterCycles() const
{
    StreamStat all = retiredJitter;
    for (ConnId conn : connections())
        all.merge(lookup(conn)->jitter());
    return all.mean();
}

std::uint64_t
MetricsRecorder::measuredFlits() const
{
    std::uint64_t n = retiredDelay.count();
    for (const ConnectionRecorder &rec : direct)
        n += rec.delay().count();
    // Slot order; a commutative integer sum.
    overflow.forEach([&](ConnId, const ConnectionRecorder &rec) {
        n += rec.delay().count();
    });
    return n;
}

const ConnectionRecorder *
MetricsRecorder::connection(ConnId conn) const
{
    return lookup(conn);
}

std::vector<ConnId>
MetricsRecorder::connections() const
{
    // Direct ids come out ascending by construction; overflow ids are
    // all larger than any direct id, so sorting just the tail keeps
    // the whole list ordered (the determinism audit relies on a
    // stable merge order in the aggregates above).
    std::vector<ConnId> ids;
    ids.reserve(direct.size() + overflow.size());
    for (std::size_t c = 0; c < direct.size(); ++c)
        if (direct[c].touched())
            ids.push_back(static_cast<ConnId>(c));
    const std::size_t tail = ids.size();
    // Slot order here; the tail is sorted on the next line.
    overflow.forEach([&](ConnId conn, const ConnectionRecorder &) {
        ids.push_back(conn);
    });
    std::sort(ids.begin() + tail, ids.end());
    return ids;
}

} // namespace mmr
