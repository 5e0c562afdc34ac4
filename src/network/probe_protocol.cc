#include "network/probe_protocol.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mmr
{

std::string
to_string(SetupState s)
{
    switch (s) {
      case SetupState::Probing:
        return "probing";
      case SetupState::Returning:
        return "returning";
      case SetupState::Established:
        return "established";
      case SetupState::Refused:
        return "refused";
    }
    return "?";
}

ProbeSetupManager::ProbeSetupManager(const Topology &topo_,
                                     RouterAccess router_at,
                                     NiPortOf ni_port_of,
                                     CompletionFn on_complete,
                                     std::uint64_t seed)
    : topo(topo_), routerAt(std::move(router_at)),
      niPortOf(std::move(ni_port_of)), onComplete(std::move(on_complete)),
      rng(seed), distCache(topo_.numNodes()),
      distCacheEpoch(topo_.numNodes(), 0)
{
    mmr_assert(routerAt && niPortOf && onComplete,
               "probe manager needs router access and a callback");
}

const std::vector<unsigned> &
ProbeSetupManager::distancesTo(NodeId dst)
{
    if (distCacheEpoch[dst] != linkEpoch) {
        survivingDistances(topo, dst, linkAlive, bfsQueue,
                           distCache[dst]);
        distCacheEpoch[dst] = linkEpoch;
    }
    return distCache[dst];
}

void
ProbeSetupManager::reservePools(std::size_t n)
{
    const std::size_t numNodes = topo.numNodes();
    // Hop capacity: an established path visits each node at most once;
    // wandering searches beyond this grow (rarely) on demand.
    const std::size_t hopCap = numNodes + 1;
    while (slots.size() < n) {
        slots.emplace_back();
        Probe &p = slots.back();
        p.search.searched.reset(topo);
        p.search.dist.reserve(numNodes);
        p.setup.hops.reserve(hopCap);
    }
    // Rebuild the free list only when the pool is idle (construction
    // time).  Indices are stacked descending so pops hand out
    // 0, 1, 2, ... — the same sequence lazy emplace_back growth
    // produces, keeping slot assignment (and digests) unchanged.
    if (order.empty()) {
        freeSlots.clear();
        freeSlots.reserve(slots.size());
        for (std::size_t i = slots.size(); i-- > 0;)
            freeSlots.push_back(static_cast<std::uint32_t>(i));
    }
    order.reserve(n);
}

// mmr-lint: allow(hot-path-alloc) amortized: the slot pool, the order
// list and every per-slot container grow to the churn high-water mark
// and are recycled from the free list afterwards.
std::uint64_t
ProbeSetupManager::begin(const SetupRequest &req, SetupPolicy policy,
                         Cycle now)
{
    mmr_assert(req.src < topo.numNodes() && req.dst < topo.numNodes() &&
                   req.src != req.dst,
               "bad setup endpoints");
    std::uint32_t idx;
    if (!freeSlots.empty()) {
        idx = freeSlots.back();
        freeSlots.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
    }
    Probe &p = slots[idx];
    startSearch(topo, req.src, p.search, p.setup);
    p.setup.token = nextToken++;
    p.setup.state = SetupState::Probing;
    p.setup.request = req;
    p.setup.policy = policy;
    p.setup.startedAt = now;
    p.setup.finishedAt = 0;
    p.setup.timedOut = false;
    p.nextAction = now; // first hop attempt happens this cycle
    p.deadline = timeoutCycles ? now + timeoutCycles : 0;
    p.lost = false;
    p.ackIndex = 0;
    // Snapshot the surviving distances as of launch; faults that land
    // mid-flight do not retarget a probe (same as the uncached BFS).
    p.search.dist = distancesTo(req.dst);
    order.push_back(idx);
    return p.setup.token;
}

void
ProbeSetupManager::timeoutProbe(Probe &p, Cycle now)
{
    TimedSetup &s = p.setup;
    releasePath(routerAt, s.hops, s.request);
    s.hops.clear();
    s.state = SetupState::Refused;
    s.timedOut = true;
    s.finishedAt = now;
    ++statTimeouts;
    onComplete(s);
}

void
ProbeSetupManager::accountReservations(NodeId n,
                                       std::vector<unsigned> &alloc,
                                       std::vector<unsigned> &peak) const
{
    for (const std::uint32_t idx : order) {
        const Probe &p = slots[idx];
        const SetupRequest &req = p.setup.request;
        for (const ReservedHop &hop : p.setup.hops) {
            if (hop.node != n)
                continue;
            mmr_assert(hop.out < alloc.size() && hop.out < peak.size(),
                       "reservation accounting vectors too small");
            if (req.klass == TrafficClass::CBR) {
                alloc[hop.out] += req.allocCycles;
            } else {
                alloc[hop.out] += req.permCycles;
                peak[hop.out] += req.peakCycles;
            }
        }
    }
}

bool
ProbeSetupManager::advanceProbe(Probe &p, Cycle now)
{
    TimedSetup &s = p.setup;

    // Fault injection: this action's message (probe hop, backtrack or
    // ack hop) is lost on the wire.  The probe goes inert; its hop
    // reservations stay held until the source timer reclaims them.
    if (messageLoss && messageLoss(s)) {
        mmr_assert(p.deadline != 0,
                   "message loss requires a setup timeout, or lost "
                   "probes would strand reservations forever");
        p.lost = true;
        ++statMessagesLost;
        return false;
    }

    p.nextAction = now + kProbeHopCycles;
    if (s.state == SetupState::Returning) {
        // The acknowledgment retraces the path toward the source via
        // the reverse channel mappings, one hop per action.
        if (p.ackIndex == 0) {
            s.state = SetupState::Established;
            s.accepted = true;
            s.finishedAt = now;
            onComplete(s);
            return true;
        }
        --p.ackIndex;
        return false;
    }

    const SetupFabric net{topo, routerAt, niPortOf, linkAlive};
    switch (epbStep(net, s.request, s.policy, rng, cands, p.search, s)) {
      case EpbStep::Reached:
        // The ack walks back over every reserved hop.
        s.state = SetupState::Returning;
        p.ackIndex = s.hops.size();
        return false;
      case EpbStep::Refused:
        s.state = SetupState::Refused;
        s.finishedAt = now;
        onComplete(s);
        return true;
      case EpbStep::Forward:
      case EpbStep::Backtrack:
        break;
    }
    return false;
}

void
ProbeSetupManager::step(Cycle now)
{
    // Probes are serviced in launch order; a finished probe frees its
    // slot and leaves the order list (erasing a u32, not a Probe).
    for (std::size_t i = 0; i < order.size();) {
        const std::uint32_t idx = order[i];
        Probe &p = slots[idx];
        // The source timer reclaims overdue setups (lost messages or
        // simply a search that ran too long) before any further
        // protocol action.
        if (p.deadline != 0 && now >= p.deadline) {
            timeoutProbe(p, now);
        } else if (p.lost || p.nextAction > now) {
            ++i;
            continue;
        } else if (!advanceProbe(p, now)) {
            ++i;
            continue;
        }
        order.erase(order.begin() + static_cast<std::ptrdiff_t>(i));
        // mmr-lint: allow(hot-path-alloc) amortized: free list grows
        // to the probe high-water mark, then recycles.
        freeSlots.push_back(idx);
    }
}

} // namespace mmr
