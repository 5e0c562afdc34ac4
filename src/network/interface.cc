#include "network/interface.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"
#include "fault/recovery.hh"

namespace mmr
{

NetworkInterface::NetworkInterface(Network &net_, NodeId host_,
                                   std::uint64_t seed)
    : net(net_), host(host_), rng(seed),
      // Best-effort flow ids carry the host in the upper bits so they
      // never collide across interfaces.
      nextBeFlow(0x4000000 + host_ * 0x10000)
{
    mmr_assert(host < net.numNodes(), "host node out of range");
}

bool
NetworkInterface::openCbrStream(NodeId dst, double rate_bps,
                                SetupPolicy policy)
{
    const auto outcome = net.openCbr(host, dst, rate_bps, policy);
    if (!outcome.accepted) {
        ++refused;
        return false;
    }
    Stream s;
    s.conn = outcome.id;
    s.dst = dst;
    s.rateBps = rate_bps;
    s.source = std::make_unique<CbrSource>(
        rate_bps, net.routerAt(host).config().linkRateBps, rng);
    streams.push_back(std::move(s));
    adoptStream(streams.back());
    nextDue = 0.0;
    return true;
}

bool
NetworkInterface::openVbrStream(NodeId dst, const VbrProfile &profile,
                                int priority, SetupPolicy policy)
{
    const double peak = profile.meanRateBps * profile.peakToMean;
    const auto outcome =
        net.openVbr(host, dst, profile.meanRateBps, peak, priority,
                    policy);
    if (!outcome.accepted) {
        ++refused;
        return false;
    }
    const RouterConfig &rc = net.routerAt(host).config();
    Stream s;
    s.conn = outcome.id;
    s.dst = dst;
    s.rateBps = profile.meanRateBps;
    s.isVbr = true;
    s.profile = profile;
    s.priority = priority;
    s.source = std::make_unique<VbrSource>(profile, rc.linkRateBps,
                                           rc.flitBits, rng);
    streams.push_back(std::move(s));
    adoptStream(streams.back());
    nextDue = 0.0;
    return true;
}

bool
NetworkInterface::openTraceStream(NodeId dst,
                                  const std::string &trace_path,
                                  double fps, double peak_to_mean,
                                  int priority, SetupPolicy policy)
{
    mmr_assert(peak_to_mean >= 1.0, "peak/mean ratio below 1");
    const RouterConfig &rc = net.routerAt(host).config();
    // Two-step construction: the trace's own mean rate defines both
    // the permanent bandwidth and (scaled) the declared peak.
    const auto trace = loadFrameTrace(trace_path);
    double total_bits = 0.0;
    for (std::uint64_t bits : trace)
        total_bits += static_cast<double>(bits);
    const double mean =
        total_bits / static_cast<double>(trace.size()) * fps;
    const double peak = mean * peak_to_mean;
    if (peak > rc.linkRateBps) {
        ++refused;
        return false; // no link can carry the declared peak
    }
    auto source = std::make_unique<TraceVbrSource>(
        trace, fps, peak, rc.linkRateBps, rc.flitBits, rng);
    const auto outcome =
        net.openVbr(host, dst, mean, peak, priority, policy);
    if (!outcome.accepted) {
        ++refused;
        return false;
    }
    Stream s;
    s.conn = outcome.id;
    s.dst = dst;
    s.rateBps = mean;
    s.isVbr = true;
    s.profile.meanRateBps = mean;
    s.profile.peakToMean = peak_to_mean;
    s.priority = priority;
    s.source = std::move(source);
    streams.push_back(std::move(s));
    adoptStream(streams.back());
    nextDue = 0.0;
    return true;
}

void
NetworkInterface::attachRecovery(RecoveryManager *mgr)
{
    recovery = mgr;
    if (!recovery)
        return;
    for (const Stream &s : streams)
        adoptStream(s);
}

void
NetworkInterface::adoptStream(const Stream &s)
{
    if (!recovery)
        return;
    RecoverySpec spec;
    spec.src = host;
    spec.dst = s.dst;
    if (s.isVbr) {
        spec.klass = TrafficClass::VBR;
        spec.rateOrMeanBps = s.profile.meanRateBps;
        spec.peakBps = s.profile.meanRateBps * s.profile.peakToMean;
        spec.priority = s.priority;
    } else {
        spec.klass = TrafficClass::CBR;
        spec.rateOrMeanBps = s.rateBps;
    }
    recovery->adopt(s.conn, spec);
}

bool
NetworkInterface::pollRecovery(Stream &s)
{
    if (!s.recovering) {
        // First sight of the failure: the dead path's backlog is
        // abandoned (those flits are counted by the network as lost).
        ++lost;
        s.backlog.clear();
        s.recovering = true;
    }
    const RecoveryStatus *st = recovery->status(s.conn);
    if (!st)
        return false; // failed while unadopted: retire
    switch (st->state) {
      case RecoveryState::Recovering:
        return true; // keep waiting; tick() drops arrivals meanwhile
      case RecoveryState::Recovered:
        s.conn = st->replacement;
        s.recovering = false;
        ++reestablished;
        return true;
      case RecoveryState::Abandoned:
        return false;
    }
    return false;
}

bool
NetworkInterface::recoverStream(Stream &s)
{
    ++lost;
    s.backlog.clear(); // flits of the dead path are abandoned
    if (!autoReestablish)
        return false;
    if (s.isVbr) {
        const double peak = s.profile.meanRateBps * s.profile.peakToMean;
        const auto o =
            net.openVbr(host, s.dst, s.profile.meanRateBps, peak,
                        s.priority);
        if (!o.accepted)
            return false;
        s.conn = o.id;
    } else {
        const auto o = net.openCbr(host, s.dst, s.rateBps);
        if (!o.accepted)
            return false;
        s.conn = o.id;
    }
    ++reestablished;
    return true;
}

void
NetworkInterface::addBestEffortFlow(NodeId dst, double rate_bps)
{
    BeFlow flow;
    flow.dst = dst;
    flow.flow = nextBeFlow++;
    flow.source = std::make_unique<PoissonSource>(
        rate_bps, net.routerAt(host).config().linkRateBps, rng);
    beFlows.push_back(std::move(flow));
    nextDue = 0.0;
}

bool
NetworkInterface::streamOpen(Stream &s)
{
    // A live ticket implies Open (it dies on failure, close and slot
    // free); Open without a live ticket is a closing connection, or a
    // ticket never minted or minted for a replaced connection.
    if (net.injectTicketLive(s.ticketSlot, s.ticketEpoch))
        return true;
    if (net.connectionState(s.conn) != Network::ConnState::Open)
        return false;
    refreshEndpoint(s);
    return true;
}

void
NetworkInterface::refreshEndpoint(Stream &s)
{
    if (net.injectTicket(s.conn, s.ticketSlot, s.ticketEpoch))
        s.handle = net.resolveInject(s.conn);
    else
        s.handle = {};
}

void
NetworkInterface::pollStream(Stream &s, Cycle now)
{
    const unsigned n = s.source->arrivals(now);
    if (s.recovering) {
        // Graceful degradation while the RecoveryManager searches for
        // a replacement path: the source keeps producing (so its
        // random stream stays aligned) but nothing can be injected;
        // the discards are accounted, never wedged.
        droppedInRecovery += n;
    } else if (n > 0 || !s.backlog.empty()) {
        // Flit-batch processing per (port, VC): every flit this stream
        // sends lands in the same input FIFO, so the connection-map
        // lookups are paid once per ticket instead of once per flit.
        // A ticket dies whenever the connection fails, closes or
        // frees its slot (and a replaced connection's ticket died
        // with the old one), so a live ticket proves the handle
        // current.
        if (!net.injectTicketLive(s.ticketSlot, s.ticketEpoch))
            refreshEndpoint(s);
        Network::InjectHandle &ep = s.handle;
        // Drain the back-pressure backlog first, preserving order.
        while (!s.backlog.empty()) {
            if (!ep.valid() || !ep.push(s.backlog.front(), now))
                break;
            s.backlog.pop_front();
            ++injected;
        }
        for (unsigned k = 0; k < n; ++k) {
            Flit f;
            f.seq = s.seq++;
            f.createTime = now;
            if (!s.backlog.empty() || !ep.valid() || !ep.push(f, now))
                s.backlog.push_back(f);
            else
                ++injected;
        }
    }
    s.nextDue = s.backlog.empty() ? s.source->nextDueCycle() : 0.0;
}

void
NetworkInterface::tick(Cycle now)
{
    // Streams whose connection died (link failure) are recovered or
    // retired before any injection work.  With no stream recovering
    // and no ticket retired anywhere since the last sweep, every
    // stream would read as it did then, so the sweep is skipped.
    if (recoveringStreams > 0 || seenTicketGen != net.ticketGeneration()) {
        recoveringStreams = 0;
        for (std::size_t i = 0; i < streams.size();) {
            Stream &s = streams[i];
            if (!s.recovering && streamOpen(s)) {
                ++i;
                continue;
            }
            const bool survives =
                recovery ? pollRecovery(s) : recoverStream(s);
            if (survives) {
                recoveringStreams += s.recovering ? 1 : 0;
                ++i;
            } else {
                streams.erase(streams.begin() +
                              static_cast<std::ptrdiff_t>(i));
            }
        }
        seenTicketGen = net.ticketGeneration();
    }

    const double t = static_cast<double>(now);
    if (t < nextDue)
        return; // no stream or flow has work this cycle
    nextDue = std::numeric_limits<double>::infinity();
    for (Stream &s : streams) {
        if (t >= s.nextDue)
            pollStream(s, now);
        nextDue = std::min(nextDue, s.nextDue);
    }
    for (BeFlow &flow : beFlows) {
        if (t >= flow.nextDue) {
            const unsigned n = flow.source->arrivals(now);
            flow.nextDue = flow.source->nextDueCycle();
            for (unsigned k = 0; k < n; ++k) {
                net.sendDatagram(host, flow.dst, TrafficClass::BestEffort,
                                 flow.flow, now, flow.seq++);
                ++injected;
            }
        }
        nextDue = std::min(nextDue, flow.nextDue);
    }
}

std::uint64_t
NetworkInterface::backloggedFlits() const
{
    std::uint64_t n = 0;
    for (const Stream &s : streams)
        n += s.backlog.size();
    return n;
}

std::vector<ConnId>
NetworkInterface::connections() const
{
    std::vector<ConnId> ids;
    ids.reserve(streams.size());
    for (const Stream &s : streams)
        ids.push_back(s.conn);
    return ids;
}

} // namespace mmr
