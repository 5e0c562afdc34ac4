#include "network/network.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/simclock.hh"
#include "obs/flight_recorder.hh"
#include "sim/invariant.hh"
#include "sim/shard_pool.hh"
#include "traffic/rates.hh"

namespace mmr
{

Network::Network(Topology topo_, NetworkConfig cfg_)
    : topo(std::move(topo_)), cfg(cfg_), rand(cfg_.seed),
      updownRoutes(std::make_unique<UpDownRouting>(topo))
{
    // Contiguous-id shard partition (computed before wiring: the
    // router callbacks capture their owning shard).  Contiguity is
    // what makes the mailbox drain order ascending router id.
    const unsigned nodes = topo.numNodes();
    numShards = std::max(1u, std::min(cfg.shards, nodes));
    shardStart.resize(numShards + 1);
    shardOf.resize(nodes);
    const unsigned base = nodes / numShards;
    const unsigned rem = nodes % numShards;
    NodeId next = 0;
    for (unsigned s = 0; s < numShards; ++s) {
        shardStart[s] = next;
        next += base + (s < rem ? 1 : 0);
    }
    shardStart[numShards] = next;
    for (unsigned s = 0; s < numShards; ++s)
        for (NodeId n = shardStart[s]; n < shardStart[s + 1]; ++n)
            shardOf[n] = s;
    mailboxes = std::vector<ShardMailbox>(numShards);
    inboxes = std::vector<ShardInbox>(numShards);
    outboxes = std::vector<CreditOutbox>(numShards * numShards);
    audits = std::vector<ShardAudit>(numShards);
    pool = std::make_unique<ShardPool>(numShards);
    arrivePhase = [this](unsigned s) { applyInbox(s); };
    evalPhase = [this](unsigned s) {
        for (NodeId n = shardStart[s]; n < shardStart[s + 1]; ++n)
            routers[n]->evaluate(phaseCycle);
    };
    advPhase = [this](unsigned s) {
        for (NodeId n = shardStart[s]; n < shardStart[s + 1]; ++n)
            routers[n]->advance(phaseCycle);
    };
    auditPhase = [this](unsigned s) {
        // The probe ledger is only read here: probes step in the
        // evaluate prologue, before this phase's barrier.
        ShardAudit &a = audits[s];
        for (NodeId n = shardStart[s]; n < shardStart[s + 1]; ++n) {
            const MmrRouter::ExtraDemandFn probes =
                [this, n](std::vector<unsigned> &alloc,
                          std::vector<unsigned> &peak) {
                    probeMgr->accountReservations(n, alloc, peak);
                };
            a.violation = routers[n]->audit(auditSweep, probes, a.ran);
            if (a.violation) {
                a.node = n;
                return;
            }
        }
    };

    routers.reserve(topo.numNodes());
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        RouterConfig rc = cfg.router;
        rc.numPorts = topo.degree(n) + 1; // +1 host-interface port
        rc.seed = cfg.seed * 0x9e3779b9ULL + n + 1;
        routers.push_back(std::make_unique<MmrRouter>(rc));
        routers.back()->credits().setInfinite(false);
        wireRouter(n);
    }
    linkDown.resize(topo.numNodes());
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        linkDown[n].assign(topo.degree(n), false);
    // An input port forwards at most one flit, so returns at most one
    // credit, per cycle, and an output port (the NI's included) takes
    // one: size the credit outboxes for their links and each inbox
    // for its routers' NI ports once, so no congestion peak allocates.
    std::vector<std::size_t> outboxLinks(outboxes.size(), 0);
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        for (const auto &link : topo.ports(n))
            ++outboxLinks[shardOf[n] * numShards + shardOf[link.neighbor]];
    for (std::size_t b = 0; b < outboxes.size(); ++b)
        outboxes[b].credits.reserve(outboxLinks[b]);
    for (unsigned s = 0; s < numShards; ++s)
        inboxes[s].credits.reserve(shardStart[s + 1] - shardStart[s]);

    routerOf = [this](NodeId n) -> MmrRouter & { return *routers[n]; };
    niPortOf = [this](NodeId n) { return niPort(n); };
    linkUp = [this](NodeId n, PortId port) {
        return directedLinkUp(n, port);
    };
    probeMgr = std::make_unique<ProbeSetupManager>(
        topo, routerOf, niPortOf,
        [this](const TimedSetup &s) { onTimedSetupComplete(s); },
        cfg.seed ^ 0xabcdef12ULL);
    probeMgr->setLinkAlive(linkUp);
}

bool
Network::directedLinkUp(NodeId n, PortId port) const
{
    mmr_assert(n < linkDown.size(), "node out of range");
    if (port >= linkDown[n].size())
        return true; // the NI port never fails
    return !linkDown[n][port];
}

void
Network::rebuildRouting()
{
    updownRoutes = std::make_unique<UpDownRouting>(
        topo, 0, [this](NodeId a, NodeId b) {
            const PortId port = topo.portTowards(a, b);
            return port != kInvalidPort && directedLinkUp(a, port);
        });
}

bool
Network::linkIsUp(NodeId a, NodeId b) const
{
    const PortId port = topo.portTowards(a, b);
    if (port == kInvalidPort)
        return false;
    return directedLinkUp(a, port);
}

bool
Network::failLink(NodeId a, NodeId b)
{
    const PortId pa = topo.portTowards(a, b);
    const PortId pb = topo.portTowards(b, a);
    if (pa == kInvalidPort || linkDown[a][pa])
        return false;
    linkDown[a][pa] = true;
    linkDown[b][pb] = true;

    // Flits already in flight on the dead link — in the serial queue
    // or in a shard inbox — are lost; return their credits so the
    // upstream VC is not wedged forever.  In-place compaction
    // preserves the FIFO order of the survivors.  Credits already on
    // their way upstream (outboxes, inbox credits) are for flits that
    // left the link downstream, so they still land.
    const auto purge = [&](std::vector<LinkFlit> &queue) {
        std::size_t kept = 0;
        for (LinkFlit &lf : queue) {
            const bool on_dead_link =
                (lf.toNode == b && lf.toPort == pb) ||
                (lf.toNode == a && lf.toPort == pa);
            if (!on_dead_link) {
                queue[kept++] = std::move(lf);
                continue;
            }
            ++statLostFlits;
            if (!lf.flit.isStream())
                ++statDatagramsLost;
            const NodeId upstream = lf.toNode == b ? a : b;
            const PortId up_port = lf.toNode == b ? pa : pb;
            routers[upstream]->credits().replenish(up_port, lf.vc);
            if (!lf.flit.isStream())
                routers[upstream]->routing().freeOutputVc(up_port, lf.vc);
        }
        queue.resize(kept);
    };
    purge(linkQueue);
    for (ShardInbox &box : inboxes)
        purge(box.flits);

    // Mark and start draining every connection whose path crosses the
    // link, in either direction.  The ids are snapshotted and sorted
    // before any side effect: the failure hook draws backoff jitter
    // from the recovery RNG and appends to its retry queue, so
    // pool-slot iteration order must not leak into the recovery
    // schedule and the result digest.
    std::vector<ConnId> crossing;
    for (const PcsConnection &conn : pcsSlots) {
        if (!conn.live || conn.failed)
            continue;
        for (const ReservedHop &hop : conn.hops) {
            const bool crosses = (hop.node == a && hop.out == pa) ||
                                 (hop.node == b && hop.out == pb);
            if (crosses) {
                crossing.push_back(conn.id);
                break;
            }
        }
    }
    std::sort(crossing.begin(), crossing.end());
    for (const ConnId id : crossing) {
        PcsConnection &conn = *pcsFind(id);
        conn.failed = true;
        retireTickets(conn);
        if (!conn.closing) {
            conn.closing = true;
            closingIds.push_back(id);
        }
        ++statConnsFailed;
        MMR_OBS_EVENT(TraceCat::Fault, "conn_failed",
                      simclock::now(), conn.src, id,
                      static_cast<std::int32_t>(conn.dst));
        if (connFailHook)
            connFailHook(id, conn.src, conn.dst, conn.klass);
    }

    MMR_OBS_EVENT(TraceCat::Fault, "link_down", simclock::now(), a,
                  kInvalidConn, static_cast<std::int32_t>(b));
    rebuildRouting();
    probeMgr->invalidateDistances();
    return true;
}

bool
Network::repairLink(NodeId a, NodeId b)
{
    const PortId pa = topo.portTowards(a, b);
    const PortId pb = topo.portTowards(b, a);
    if (pa == kInvalidPort || !linkDown[a][pa])
        return false;
    linkDown[a][pa] = false;
    linkDown[b][pb] = false;
    MMR_OBS_EVENT(TraceCat::Fault, "link_up", simclock::now(), a,
                  kInvalidConn, static_cast<std::int32_t>(b));
    rebuildRouting();
    probeMgr->invalidateDistances();
    return true;
}

Network::ConnState
Network::connectionState(ConnId id) const
{
    const PcsConnection *conn = pcsFind(id);
    if (conn == nullptr)
        return ConnState::Gone;
    return conn->failed ? ConnState::Failed : ConnState::Open;
}

Network::PcsConnection *
Network::pcsFind(ConnId id)
{
    const std::uint32_t *slot = pcsIndex.find(id);
    return slot ? &pcsSlots[*slot] : nullptr;
}

const Network::PcsConnection *
Network::pcsFind(ConnId id) const
{
    const std::uint32_t *slot = pcsIndex.find(id);
    return slot ? &pcsSlots[*slot] : nullptr;
}

Network::~Network() = default;

MmrRouter &
Network::routerAt(NodeId n)
{
    mmr_assert(n < routers.size(), "node out of range");
    return *routers[n];
}

// mmr-lint: allow(hot-path-alloc) amortized: the mailbox logs and
// credit outboxes the router callbacks append to keep their capacity
// across cycles, so a steady-state parallel phase allocates nothing.
void
Network::wireRouter(NodeId n)
{
    // No callback is applied inline: the handlers touch other routers
    // (credit upstream, link queues, end-to-end stats), which a worker
    // thread must not do.  A link credit goes straight to the outbox
    // toward the upstream router's shard, which applies it in the
    // next arrival phase.  Egress and segment removal become mailbox
    // records on the emitting router's shard, which the coordinator
    // replays after the phase barrier in shard order — for a
    // contiguous-id partition, the ascending-router order.  The
    // callbacks that log fire only inside a phase: sink comes from
    // router evaluate/advance, and the one out-of-phase segment
    // removal (processPendingCloses) removes PCS segments, which
    // return below before logging anything.
    const unsigned shard = shardOf[n];
    routers[n]->setSink(
        [this, n, shard](PortId out, VcId out_vc, const Flit &f, Cycle) {
            ShardMailbox &box = mailboxes[shard];
            box.log.push_back({n, out, out_vc, DeferredEvent::Kind::Egress});
            box.egressFlits.push_back(f);
        });
    routers[n]->setCreditReturn(
        [this, n, shard](PortId in, VcId vc, Cycle) {
            if (in >= topo.degree(n))
                return; // NI-side injection is limited by deposit space
            // Links are simple (no parallel edges), so the port the
            // flit came in on names the upstream end exactly.
            const auto &link = topo.ports(n)[in];
            outboxes[shard * numShards + shardOf[link.neighbor]]
                .credits.push_back({link.neighbor, link.remotePort, vc});
        });
    routers[n]->setSegmentRemoved(
        [this, n, shard](const SegmentParams &seg) {
            // A transient datagram segment owns its *link* input VC
            // from the upstream router's output pool; the link VC is
            // only free again once the packet has left this router, so
            // the upstream allocation is released here rather than
            // when the flit left the upstream router (that early
            // release would let a new connection claim a VC whose
            // buffer is still occupied).
            if (!seg.releaseWhenEmpty || seg.in >= topo.degree(n))
                return;
            mailboxes[shard].log.push_back(
                {n, seg.in, seg.inVc, DeferredEvent::Kind::SegRemoved});
        });
}

void
Network::handleSegmentRemoved(NodeId n, PortId in, VcId in_vc)
{
    const NodeId upstream = topo.neighborAt(n, in);
    const PortId up_port = topo.portTowards(upstream, n);
    routers[upstream]->routing().freeOutputVc(up_port, in_vc);
}

// mmr-lint: allow(hot-path-alloc) amortized: linkQueue and the
// inbox vectors are members whose capacity persists at the in-flight
// high-water mark.
void
Network::handleEgress(NodeId n, PortId out, VcId out_vc, const Flit &f,
                      Cycle now)
{
    if (out == niPort(n)) {
        deliverToHost(n, f, now);
        // The host consumes immediately: return the NI credit.
        if (out_vc != kInvalidVc)
            inboxes[shardOf[n]].credits.push_back({n, out, out_vc});
        return;
    }
    if (!directedLinkUp(n, out)) {
        // The link failed after the flit was scheduled: it is lost on
        // the wire.  Return the credit so the (now pointless) VC does
        // not stay wedged while its connection drains out, and — for
        // datagrams — release the link VC the packet was holding,
        // since no downstream segment will ever do it.
        ++statLostFlits;
        if (!f.isStream())
            ++statDatagramsLost;
        if (out_vc != kInvalidVc) {
            routers[n]->credits().replenish(out, out_vc);
            if (!f.isStream())
                routers[n]->routing().freeOutputVc(out, out_vc);
        }
        return;
    }
    const auto &ports = topo.ports(n);
    mmr_assert(out < ports.size(), "egress on unknown port");
    const auto &link = ports[out];
    LinkFlit lf{link.neighbor, link.remotePort, out_vc, f,
                now + kLinkLatency};
    // Fault injection: damage the payload on the wire.  The flit still
    // occupies the link; the downstream CRC check discards it.
    if (corruptHook && corruptHook(n, out, f))
        lf.flit.corrupted = true;
    // An intact stream flit follows its installed segment and touches
    // only the downstream router: its owning shard deposits it.
    // Everything else needs the serial network-wide view.
    if (lf.flit.isStream() && !lf.flit.corrupted)
        inboxes[shardOf[lf.toNode]].flits.push_back(std::move(lf));
    else
        linkQueue.push_back(std::move(lf));
}

void
Network::deliverToHost(NodeId n, const Flit &f, Cycle now)
{
    ++statDelivered;
    MMR_OBS_EVENT(TraceCat::Flit, "e2e_deliver", now, n, f.conn,
                  static_cast<std::int32_t>(f.src),
                  static_cast<std::int32_t>(now - f.createTime));
    if (f.klass == TrafficClass::BestEffort ||
        f.klass == TrafficClass::Control)
        ++statDatagramsDone;
    e2e.recordDeparture(f.conn, now,
                        static_cast<double>(now - f.createTime),
                        f.klass);
}

// ---------------------------------------------------------------------
// PCS connections
// ---------------------------------------------------------------------

void
Network::reserveSessions(std::size_t n)
{
    // An established path visits each node at most once (+ NI hop);
    // paths beyond this grow (rarely) on demand.
    const std::size_t hopCap = topo.numNodes() + 1;
    while (pcsSlots.size() < n) {
        pcsSlots.emplace_back();
        pcsSlots.back().hops.reserve(hopCap);
    }
    // Stack the free list descending so pops hand out slot indices
    // 0, 1, 2, ... — the same sequence lazy emplace_back growth
    // produces; slot assignment (and every digest) is unchanged.
    if (pcsIndex.empty()) {
        pcsFreeSlots.clear();
        pcsFreeSlots.reserve(pcsSlots.size());
        for (std::size_t i = pcsSlots.size(); i-- > 0;)
            pcsFreeSlots.push_back(static_cast<std::uint32_t>(i));
    }
    pcsIndex.reserve(n);
    timedInfo.reserve(n);
    timedDone.reserve(n);
    closingIds.reserve(n);
    probeMgr->reservePools(n);
    e2e.reserveConnections(n);
    // Per-router segment tables: a router can carry at most one
    // segment per output VC, so cap the pre-size at its VC count
    // rather than charging every router for the global session limit.
    for (NodeId node = 0; node < topo.numNodes(); ++node) {
        MmrRouter &r = routerAt(node);
        const std::size_t vcCap =
            static_cast<std::size_t>(r.config().numPorts) *
            r.config().vcsPerPort;
        r.reserveConnections(std::min(n, vcCap));
    }
}

ConnId
Network::installReservedPath(const SetupRequest &req,
                             const std::vector<ReservedHop> &hops,
                             double rate_or_mean, int priority)
{
    mmr_assert(!hops.empty(), "installing an empty path");
    const ConnId id = nextPcsId++;
    const double link = cfg.router.linkRateBps;

    // Source-side input VC on the NI port.
    const PortId src_ni = niPort(req.src);
    const VcId src_vc = routers[req.src]->routing().allocInputVc(src_ni);
    if (src_vc == kInvalidVc) {
        releasePath(routerOf, hops, req); // roll the reservation back
        return kInvalidConn;
    }

    for (std::size_t k = 0; k < hops.size(); ++k) {
        const ReservedHop &hop = hops[k];
        SegmentParams p;
        p.id = id;
        p.klass = req.klass;
        p.out = hop.out;
        p.outVc = hop.outVc;
        p.allocCycles = req.allocCycles;
        p.permCycles = req.permCycles;
        p.peakCycles = req.peakCycles;
        p.interArrival = interArrivalCycles(rate_or_mean, link);
        p.priority = priority;
        p.ownsOutputVc = true;
        if (k == 0) {
            p.in = src_ni;
            p.inVc = src_vc;
            p.ownsInputVc = true;
        } else {
            const NodeId prev = hops[k - 1].node;
            p.in = topo.portTowards(hop.node, prev);
            p.inVc = hops[k - 1].outVc;
            p.ownsInputVc = false;
        }
        if (!routers[hop.node]->installSegment(p)) {
            mmr_panic("segment install failed at node ", hop.node,
                      " for reserved connection ", id);
        }
    }

    // Pool-slotted connection record: reuse a freed slot (and its
    // hops capacity) when one exists.
    std::uint32_t slot;
    if (!pcsFreeSlots.empty()) {
        slot = pcsFreeSlots.back();
        pcsFreeSlots.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(pcsSlots.size());
        // mmr-lint: allow(hot-path-alloc) amortized: the pool grows
        // to the peak live-connection count, then recycles.
        pcsSlots.emplace_back();
    }
    PcsConnection &conn = pcsSlots[slot];
    conn.id = id;
    conn.src = req.src;
    conn.dst = req.dst;
    conn.klass = req.klass;
    conn.hops = hops;
    conn.closing = false;
    conn.failed = false;
    conn.live = true;
    pcsIndex.insert(id, slot);
    return id;
}

bool
Network::setupRequest(NodeId src, NodeId dst, TrafficClass klass,
                      double rate_bps, double peak_bps,
                      SetupRequest &req) const
{
    const double link = cfg.router.linkRateBps;
    if (!(rate_bps > 0.0 && peak_bps >= rate_bps && peak_bps <= link))
        return false;
    const unsigned round = cfg.router.cyclesPerRound();
    req.src = src;
    req.dst = dst;
    req.klass = klass;
    if (klass == TrafficClass::CBR) {
        req.allocCycles = cyclesPerRound(rate_bps, link, round);
    } else {
        req.permCycles = cyclesPerRound(rate_bps, link, round);
        req.peakCycles = cyclesPerRound(peak_bps, link, round);
    }
    return true;
}

Network::SetupOutcome
Network::setupNow(const SetupRequest &req, SetupPolicy policy,
                  double rate_or_mean, int priority)
{
    establishPath(topo, routerOf, niPortOf, req, policy, rand, linkUp,
                  setupScratch, setupResult);
    const SetupResult &sr = setupResult;
    SetupOutcome out;
    out.forwardSteps = sr.forwardSteps;
    out.backtrackSteps = sr.backtrackSteps;
    if (!sr.accepted) {
        out.setupLatencyCycles = static_cast<double>(
            kProbeHopCycles * (sr.forwardSteps + sr.backtrackSteps));
        MMR_OBS_EVENT(TraceCat::Setup, "setup_reject",
                      simclock::now(), req.src, kInvalidConn,
                      static_cast<std::int32_t>(req.dst),
                      static_cast<std::int32_t>(sr.backtrackSteps));
        return out;
    }

    const ConnId id =
        installReservedPath(req, sr.hops, rate_or_mean, priority);
    if (id == kInvalidConn)
        return out;

    out.id = id;
    out.accepted = true;
    out.pathLength = static_cast<unsigned>(sr.hops.size());
    out.setupLatencyCycles = static_cast<double>(
        kProbeHopCycles *
        (sr.forwardSteps + sr.backtrackSteps + sr.hops.size()));
    MMR_OBS_EVENT(TraceCat::Setup, "setup_accept", simclock::now(),
                  req.src, id,
                  static_cast<std::int32_t>(req.dst),
                  static_cast<std::int32_t>(out.pathLength));
    return out;
}

std::uint64_t
Network::openCbrTimed(NodeId src, NodeId dst, double rate_bps, Cycle now,
                      SetupPolicy policy)
{
    SetupRequest req;
    const bool carriable = setupRequest(src, dst, TrafficClass::CBR,
                                        rate_bps, rate_bps, req);
    mmr_assert(carriable, "timed setup with an uncarriable rate");
    const std::uint64_t token = probeMgr->begin(req, policy, now);
    timedInfo.insert(token, TimedRequestInfo{rate_bps, 0});
    return token;
}

std::uint64_t
Network::openVbrTimed(NodeId src, NodeId dst, double mean_bps,
                      double peak_bps, int priority, Cycle now,
                      SetupPolicy policy)
{
    SetupRequest req;
    const bool carriable = setupRequest(src, dst, TrafficClass::VBR,
                                        mean_bps, peak_bps, req);
    mmr_assert(carriable, "timed setup with an uncarriable rate");
    const std::uint64_t token = probeMgr->begin(req, policy, now);
    timedInfo.insert(token, TimedRequestInfo{mean_bps, priority});
    return token;
}

void
Network::onTimedSetupComplete(const TimedSetup &s)
{
    const TimedRequestInfo *info_p = timedInfo.find(s.token);
    mmr_assert(info_p != nullptr,
               "completion for an unknown setup token");
    const TimedRequestInfo info = *info_p;
    timedInfo.erase(s.token);

    TimedOutcome out;
    out.token = s.token;
    out.done = true;
    out.forwardSteps = s.forwardSteps;
    out.backtrackSteps = s.backtrackSteps;
    out.setupCycles = s.finishedAt - s.startedAt;
    if (s.state == SetupState::Established) {
        const ConnId id = installReservedPath(s.request, s.hops,
                                              info.rateOrMean,
                                              info.priority);
        if (id != kInvalidConn) {
            out.accepted = true;
            out.id = id;
            out.pathLength = static_cast<unsigned>(s.hops.size());
        }
    }
    MMR_OBS_EVENT(TraceCat::Setup,
                  out.accepted ? "probe_established"
                               : "probe_failed",
                  s.finishedAt, s.request.src, out.id,
                  static_cast<std::int32_t>(s.request.dst),
                  static_cast<std::int32_t>(out.setupCycles));
    timedDone.insert(s.token, out);
}

const Network::TimedOutcome *
Network::timedResult(std::uint64_t token) const
{
    return timedDone.find(token);
}

bool
Network::takeTimedResult(std::uint64_t token, TimedOutcome &out)
{
    const TimedOutcome *r = timedDone.find(token);
    if (r == nullptr)
        return false;
    out = *r;
    timedDone.erase(token);
    return true;
}

std::size_t
Network::pendingSetups() const
{
    return probeMgr->inFlight();
}

Network::SetupOutcome
Network::openCbr(NodeId src, NodeId dst, double rate_bps,
                 SetupPolicy policy)
{
    SetupRequest req;
    if (!setupRequest(src, dst, TrafficClass::CBR, rate_bps, rate_bps,
                      req))
        return SetupOutcome{}; // no link can carry this rate
    return setupNow(req, policy, rate_bps, 0);
}

Network::SetupOutcome
Network::openVbr(NodeId src, NodeId dst, double mean_bps,
                 double peak_bps, int priority, SetupPolicy policy)
{
    SetupRequest req;
    if (!setupRequest(src, dst, TrafficClass::VBR, mean_bps, peak_bps,
                      req))
        return SetupOutcome{};
    return setupNow(req, policy, mean_bps, priority);
}

bool
Network::closeConnection(ConnId id)
{
    PcsConnection *conn = pcsFind(id);
    if (conn == nullptr)
        return false;
    if (!conn->closing) {
        conn->closing = true;
        retireTickets(*conn);
        // mmr-lint: allow(hot-path-alloc) amortized: closingIds is a
        // member; its capacity persists across cycles.
        closingIds.push_back(id);
    }
    return true;
}

void
Network::processPendingCloses()
{
    // closingIds is maintained incrementally (closeConnection,
    // failLink), so a cycle without pending teardowns costs one
    // empty-check instead of a scan of every open connection.
    if (closingIds.empty())
        return;
    // Closes run after this cycle's arrivals, and every flit on a
    // link arrives the cycle after it left: none is between routers,
    // so a drained path is a drained connection.
    mmr_assert(linkQueue.empty(), "link flits in flight during closes");
    for (const ShardInbox &box : inboxes)
        mmr_assert(box.flits.empty(), "inbox flits in flight during "
                                      "closes");
    // Teardown order is observable (credits return and output VCs free
    // as segments are removed), so walk the closing connections in
    // ascending id order.  Undrained connections stay on the list for
    // the next cycle, compacted in place.
    std::sort(closingIds.begin(), closingIds.end());
    std::size_t kept = 0;
    for (const ConnId id : closingIds) {
        PcsConnection &conn = *pcsFind(id);
        bool drained = true;
        for (const ReservedHop &hop : conn.hops) {
            const SegmentParams *seg =
                routers[hop.node]->connection(conn.id);
            mmr_assert(seg != nullptr, "missing segment during close");
            const VcState &vc =
                routers[hop.node]->inputMemory(seg->in).vc(seg->inVc);
            if (!vc.empty() || vc.pendingGrants() != 0) {
                drained = false;
                break;
            }
        }
        if (!drained) {
            closingIds[kept++] = id;
            continue;
        }
        for (const ReservedHop &hop : conn.hops)
            routers[hop.node]->removeSegment(conn.id);
        conn.live = false;
        retireTickets(conn); // a reused slot must not revive them
        conn.hops.clear();
        // mmr-lint: allow(hot-path-alloc) amortized: free list grows
        // to the connection high-water mark, then recycles.
        pcsFreeSlots.push_back(*pcsIndex.find(id));
        pcsIndex.erase(id);
    }
    // mmr-lint: allow(hot-path-alloc) shrinking resize: kept <= size.
    closingIds.resize(kept);
}

bool
Network::inject(ConnId id, Flit f, Cycle now)
{
    const PcsConnection *it = pcsFind(id);
    if (it == nullptr || it->failed || it->closing)
        return false; // torn down (possibly by a link failure)
    const PcsConnection &conn = *it;
    f.src = conn.src;
    f.dst = conn.dst;
    f.setReadyTime(now);
    if (!routers[conn.src]->inject(id, f)) {
        ++statInjectRejects;
        return false;
    }
    return true;
}

Network::InjectHandle
Network::resolveInject(ConnId id)
{
    InjectHandle h;
    const PcsConnection *it = pcsFind(id);
    if (it == nullptr || it->failed || it->closing)
        return h; // torn down: invalid handle, push() would refuse
    const PcsConnection &conn = *it;
    const SegmentParams *seg = routers[conn.src]->connection(id);
    mmr_assert(seg != nullptr,
               "open connection without a source segment");
    h.net = this;
    h.router = routers[conn.src].get();
    h.conn = id;
    h.src = conn.src;
    h.dst = conn.dst;
    h.in = seg->in;
    h.inVc = seg->inVc;
    h.klass = seg->klass;
    return h;
}

bool
Network::injectTicket(ConnId id, std::uint32_t &slot,
                      std::uint32_t &epoch) const
{
    const std::uint32_t *s = pcsIndex.find(id);
    if (s == nullptr)
        return false;
    const PcsConnection &conn = pcsSlots[*s];
    if (conn.failed || conn.closing)
        return false;
    slot = *s;
    epoch = conn.epoch;
    return true;
}

bool
Network::InjectHandle::push(Flit f, Cycle now)
{
    f.conn = conn;
    f.klass = klass;
    f.src = src;
    f.dst = dst;
    f.setReadyTime(now);
    if (!router->injectRaw(in, inVc, f)) {
        ++net->statInjectRejects;
        return false;
    }
    return true;
}

bool
Network::renegotiateBandwidth(ConnId id, double new_rate_bps)
{
    const PcsConnection *it = pcsFind(id);
    if (it == nullptr || it->klass != TrafficClass::CBR)
        return false;
    const PcsConnection &conn = *it;

    // Remember the old rate (identical at each hop) for rollback.
    const SegmentParams *seg0 =
        routers[conn.hops.front().node]->connection(id);
    mmr_assert(seg0 != nullptr, "connection without a first segment");
    const double old_rate =
        cfg.router.linkRateBps / seg0->interArrival;

    std::size_t done = 0;
    for (; done < conn.hops.size(); ++done) {
        if (!routers[conn.hops[done].node]->renegotiateBandwidth(
                id, new_rate_bps))
            break;
    }
    if (done == conn.hops.size())
        return true;
    // Rollback the hops that already accepted the new rate.
    for (std::size_t k = 0; k < done; ++k) {
        const bool ok = routers[conn.hops[k].node]->renegotiateBandwidth(
            id, old_rate);
        mmr_assert(ok, "rollback to the old rate must always fit");
    }
    return false;
}

bool
Network::setConnectionPriority(ConnId id, int priority)
{
    const PcsConnection *it = pcsFind(id);
    if (it == nullptr || it->klass != TrafficClass::VBR)
        return false;
    for (const ReservedHop &hop : it->hops)
        routers[hop.node]->setConnectionPriority(id, priority);
    return true;
}

std::vector<NodeId>
Network::connectionPath(ConnId id) const
{
    std::vector<NodeId> path;
    const PcsConnection *it = pcsFind(id);
    if (it == nullptr)
        return path;
    path.reserve(it->hops.size());
    for (const ReservedHop &hop : it->hops)
        path.push_back(hop.node);
    return path;
}

// ---------------------------------------------------------------------
// Datagram traffic
// ---------------------------------------------------------------------

void
Network::sendDatagram(NodeId src, NodeId dst, TrafficClass klass,
                      ConnId flow, Cycle now, std::uint32_t seq)
{
    mmr_assert(src < topo.numNodes() && dst < topo.numNodes(),
               "datagram endpoints out of range");
    mmr_assert(klass == TrafficClass::BestEffort ||
                   klass == TrafficClass::Control,
               "datagrams are best-effort or control packets");
    ++statDatagramsSent;
    MMR_OBS_EVENT(TraceCat::Flit, "dgram_send", now, src, flow,
                  static_cast<std::int32_t>(dst));

    Flit f;
    f.conn = flow;
    f.klass = klass;
    f.seq = seq;
    f.src = src;
    f.dst = dst;
    f.createTime = now;
    f.setReadyTime(now);

    if (src == dst) {
        deliverToHost(dst, f, now);
        return;
    }

    PendingArrival p;
    p.node = src;
    p.inPort = kInvalidPort; // NI-side injection
    p.inVc = kInvalidVc;
    p.flit = f;
    if (!placeDatagram(p, now))
        pendingArrivals.push_back(std::move(p));
}

bool
Network::placeDatagram(PendingArrival &p, Cycle now)
{
    MmrRouter &router = *routers[p.node];
    const bool ni_injection = p.inPort == kInvalidPort;

    // Choose the output side first (no state is touched on failure).
    PortId out = kInvalidPort;
    bool out_is_down = false;
    if (p.node == p.flit.dst) {
        out = niPort(p.node);
    } else {
        // Adaptive up*-down*: try legal hops, the adaptive pick first.
        const NodeId pick = updownRoutes->adaptiveNextHop(
            p.node, p.flit.dst, p.flit.downPhase, rand);
        if (pick == kInvalidNode) {
            ++statDatagramDrops;
            if (!ni_injection) {
                // The packet was holding a link VC and its credit at
                // the upstream router; hand both back.
                const NodeId upstream = topo.neighborAt(p.node, p.inPort);
                const PortId up_port =
                    topo.portTowards(upstream, p.node);
                routers[upstream]->credits().replenish(up_port, p.inVc);
                routers[upstream]->routing().freeOutputVc(up_port,
                                                          p.inVc);
            }
            mmr_warn("datagram at node ", p.node, " for ", p.flit.dst,
                     " has no legal route; dropping");
            return true; // consumed (dropped)
        }
        updownRoutes->legalNextHops(p.node, p.flit.dst, p.flit.downPhase,
                                    hopScratch);
        // Put the adaptive pick first, keep the rest (in port order)
        // as fallbacks.
        const auto picked =
            std::find(hopScratch.begin(), hopScratch.end(), pick);
        mmr_assert(picked != hopScratch.end(),
                   "adaptive pick is not a legal hop");
        std::rotate(hopScratch.begin(), picked, picked + 1);
        for (NodeId h : hopScratch) {
            const PortId port = topo.portTowards(p.node, h);
            if (router.routing().freeOutputVcCount(port) > 0) {
                out = port;
                out_is_down = !updownRoutes->isUp(p.node, h);
                break;
            }
        }
        if (out == kInvalidPort)
            return false; // all next hops exhausted; retry later
    }

    const VcId out_vc = router.routing().allocOutputVc(out);
    if (out_vc == kInvalidVc)
        return false;

    // Claim the input VC.
    PortId in = p.inPort;
    VcId in_vc = p.inVc;
    bool owns_input = false;
    if (ni_injection) {
        in = niPort(p.node);
        in_vc = router.routing().allocInputVc(in);
        owns_input = true;
        if (in_vc == kInvalidVc) {
            router.routing().freeOutputVc(out, out_vc);
            return false;
        }
    } else if (router.inputMemory(in).vc(in_vc).bound()) {
        // The previous packet on this link VC has not drained yet.
        router.routing().freeOutputVc(out, out_vc);
        return false;
    }

    SegmentParams seg;
    seg.id = nextTransient++;
    seg.klass = p.flit.klass;
    seg.in = in;
    seg.inVc = in_vc;
    seg.out = out;
    seg.outVc = out_vc;
    seg.releaseWhenEmpty = true;
    seg.ownsInputVc = owns_input;
    // A link output VC stays allocated until the downstream router
    // releases the packet (see the segment-removed hook); only the
    // NI hop's output VC has no downstream router and is freed with
    // this segment.
    seg.ownsOutputVc = (out == niPort(p.node));
    if (!routers[p.node]->installSegment(seg)) {
        router.routing().freeOutputVc(out, out_vc);
        if (owns_input)
            router.routing().freeInputVc(in, in_vc);
        return false;
    }

    Flit f = p.flit;
    if (p.node != f.dst)
        f.downPhase = f.downPhase || out_is_down;
    f.setReadyTime(now);
    const bool ok = router.injectRaw(in, in_vc, f);
    mmr_assert(ok, "deposit into a fresh datagram VC cannot fail");
    return true;
}

// mmr-lint: allow(hot-path-alloc) amortized: pendingArrivals is a
// member; its capacity persists across cycles.
std::uint64_t
Network::processArrivals(Cycle now)
{
    // Every queued flit left its router last cycle, so all are due
    // now: the queue empties every cycle.
    std::uint64_t transits = 0;
    for (const LinkFlit &lf : linkQueue) {
        mmr_assert(lf.arriveAt == now, "link flit due at cycle ",
                   lf.arriveAt, " found at ", now);
        // CRC check at the input: a flit corrupted on the wire is
        // discarded with accounting.  The upstream credit returns so
        // the VC is not wedged; a datagram additionally releases the
        // link VC it was holding (no downstream segment ever will).
        if (lf.flit.corrupted) {
            ++statFlitsCorrupted;
            if (!lf.flit.isStream())
                ++statDatagramsLost;
            const NodeId upstream = topo.neighborAt(lf.toNode, lf.toPort);
            const PortId up_port = topo.portTowards(upstream, lf.toNode);
            routers[upstream]->credits().replenish(up_port, lf.vc);
            if (!lf.flit.isStream())
                routers[upstream]->routing().freeOutputVc(up_port, lf.vc);
            MMR_OBS_EVENT(TraceCat::Fault, "crc_drop", now,
                          lf.toNode, lf.flit.conn,
                          static_cast<std::int32_t>(lf.flit.src));
            continue;
        }
        mmr_assert(!lf.flit.isStream(),
                   "intact stream flit on the serial link queue");
        ++transits;
        PendingArrival p;
        p.node = lf.toNode;
        p.inPort = lf.toPort;
        p.inVc = lf.vc;
        p.flit = lf.flit;
        p.flit.setReadyTime(now);
        if (!placeDatagram(p, now))
            pendingArrivals.push_back(std::move(p));
    }
    linkQueue.clear();

    // Retry every blocked datagram — those parked on earlier cycles
    // and those that just failed above — compacting the still-blocked
    // ones in place, preserving their order.
    const std::size_t n = pendingArrivals.size();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
        PendingArrival p = std::move(pendingArrivals[i]);
        if (!placeDatagram(p, now))
            pendingArrivals[kept++] = std::move(p);
    }
    if (kept != n)
        pendingArrivals.erase(
            pendingArrivals.begin() + static_cast<std::ptrdiff_t>(kept),
            pendingArrivals.begin() + static_cast<std::ptrdiff_t>(n));
    return transits;
}

// ---------------------------------------------------------------------
// Clocked
// ---------------------------------------------------------------------

void
Network::evaluate(Cycle now)
{
    // Prologue: the probe protocol and the serial arrivals on the
    // coordinator, then the arrival phase on the shards, then pending
    // closes — all before any router evaluates.  Arrivals land
    // before closes, and a router sees the same deposits and credits
    // whichever thread applied them (DESIGN.md §12).
    probeMgr->step(now);
    std::uint64_t transits = processArrivals(now);
    runPhase(now, arrivePhase);
    for (ShardInbox &box : inboxes) {
        transits += box.transits;
        statInjectRejects += box.rejects;
        box.transits = 0;
        box.rejects = 0;
    }
    // Wire time of each hop: the LinkTransit latency stage, one count
    // per intact arrival (an integer histogram, so the fold order
    // cannot matter).
    e2e.recordLinkTransits(kLinkLatency, transits, now);
    processPendingCloses();
    runPhase(now, evalPhase);
}

void
Network::applyInbox(unsigned s)
{
    for (unsigned from = 0; from < numShards; ++from) {
        std::vector<CreditReturn> &credits =
            outboxes[from * numShards + s].credits;
        for (const CreditReturn &c : credits)
            routers[c.node]->credits().replenish(c.port, c.vc);
        credits.clear();
    }
    ShardInbox &box = inboxes[s];
    for (const CreditReturn &c : box.credits)
        routers[c.node]->credits().replenish(c.port, c.vc);
    box.credits.clear();
    for (LinkFlit &lf : box.flits) {
        mmr_assert(lf.arriveAt == phaseCycle, "link flit due at cycle ",
                   lf.arriveAt, " found at ", phaseCycle);
        lf.flit.setReadyTime(phaseCycle);
        if (!routers[lf.toNode]->injectRaw(lf.toPort, lf.vc, lf.flit))
            ++box.rejects;
    }
    box.transits = box.flits.size();
    box.flits.clear();
}

void
Network::advance(Cycle now)
{
    runPhase(now, advPhase);
}

void
Network::runPhase(Cycle now, const std::function<void(unsigned)> &phase)
{
    for (const ShardMailbox &box : mailboxes)
        mmr_assert(box.log.empty(), "router callback logged outside a "
                                    "phase");
    phaseCycle = now;
    pool->runPhase(now, phase);
    drainMailboxes(now);
}

void
Network::drainMailboxes(Cycle now)
{
    // Deterministic merge: ascending shard id, per-shard append
    // (emission) order.  With contiguous-id partitions this replays
    // every deferred side effect — link-queue pushes, corrupt-hook
    // RNG draws, upstream VC releases, end-to-end FP accumulation —
    // in ascending router id whatever the shard count, which is what
    // keeps networkResultDigest bit-identical across shard counts
    // (DESIGN.md §12).
    for (unsigned s = 0; s < numShards; ++s) {
        ShardMailbox &box = mailboxes[s];
        std::size_t egress = 0;
        for (const DeferredEvent &e : box.log) {
            switch (e.kind) {
            case DeferredEvent::Kind::Egress:
                handleEgress(e.node, e.port, e.vc,
                             box.egressFlits[egress++], now);
                break;
            case DeferredEvent::Kind::SegRemoved:
                handleSegmentRemoved(e.node, e.port, e.vc);
                break;
            }
        }
        box.log.clear();
        box.egressFlits.clear();
    }
}

// ---------------------------------------------------------------------
// Invariant auditing
// ---------------------------------------------------------------------

std::uint64_t
Network::auditRouters(Cycle now, bool sweep)
{
    auditSweep = sweep;
    pool->runPhase(now, auditPhase);
    // Contiguous-id shards, each stopped at its first violator: the
    // first shard holding a violation holds the lowest violating
    // router id, whichever shard found its violation first.
    std::uint64_t ran = 0;
    for (ShardAudit &a : audits) {
        if (a.violation)
            invariant::enforce(a.violation,
                               "router " + std::to_string(a.node) + ": ");
        ran += a.ran;
        a.ran = 0;
    }
    return ran;
}

void
Network::registerInvariants(InvariantChecker &chk, unsigned sweep_period)
{
    mmr_assert(sweep_period > 0, "router sweep needs period >= 1");
    chk.addBatch("routers", [this, sweep_period](Cycle now, bool all) {
        return auditRouters(now, all || now % sweep_period == 0);
    });

    // Both directions of a link agree on its health — the fault
    // model's own bookkeeping is self-consistent.
    chk.add(
        "net-link-symmetry",
        [this](Cycle) {
            for (NodeId n = 0; n < topo.numNodes(); ++n) {
                for (const auto &port : topo.ports(n)) {
                    const bool here = linkDown[n][port.localPort];
                    const bool there =
                        linkDown[port.neighbor][port.remotePort];
                    if (here != there) {
                        mmr_invariant_violated(
                            "net-link-symmetry", "link ", n, "<->",
                            port.neighbor,
                            " is down in one direction only");
                    }
                }
            }
        },
        sweep_period);

    // Every open PCS connection still has its segment installed in
    // every router along its path — teardown never leaves a
    // half-removed path behind.
    chk.add(
        "net-pcs-segments",
        [this](Cycle) {
            // Pool-slot order; a pure check, so any violation panics
            // regardless of visit order.
            for (const PcsConnection &conn : pcsSlots) {
                if (!conn.live)
                    continue;
                for (const ReservedHop &hop : conn.hops) {
                    if (routers[hop.node]->connection(conn.id) ==
                        nullptr) {
                        mmr_invariant_violated(
                            "net-pcs-segments", "connection ", conn.id,
                            " (", conn.src, "->", conn.dst,
                            ") has no segment at node ", hop.node);
                    }
                }
            }
        },
        sweep_period);
}

// ---------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------

void
Network::registerStats(StatsRegistry &reg, MmrRouter::StatsDetail detail)
{
    reg.addCounter("net.flits.delivered", &statDelivered);
    reg.addCounter("net.flits.lost", &statLostFlits);
    reg.addCounter("net.flits.corrupted", &statFlitsCorrupted);
    reg.addCounter("net.datagrams.lost", &statDatagramsLost);
    reg.addCounter("net.inject_rejects", &statInjectRejects);
    reg.addCounter("net.datagrams.sent", &statDatagramsSent);
    reg.addCounter("net.datagrams.delivered", &statDatagramsDone);
    reg.addCounter("net.datagrams.drops", &statDatagramDrops);
    reg.addCounter("net.connections.failed", &statConnsFailed);
    reg.addGauge("net.connections.open", [this] {
        return static_cast<double>(pcsIndex.size());
    });
    reg.addGauge("net.setups.pending", [this] {
        return static_cast<double>(probeMgr->inFlight());
    });
    reg.addGauge("net.link_queue.depth", [this] {
        std::size_t depth = linkQueue.size();
        for (const ShardInbox &box : inboxes)
            depth += box.flits.size();
        return static_cast<double>(depth);
    });
    reg.addGauge("net.datagrams.pending", [this] {
        return static_cast<double>(pendingArrivals.size());
    });

    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        routers[n]->registerStats(
            reg, "router" + std::to_string(n) + ".", detail);
    }
}

} // namespace mmr
