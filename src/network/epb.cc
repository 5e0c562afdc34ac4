#include "network/epb.hh"

#include "base/logging.hh"

namespace mmr
{

namespace
{

/** Try to reserve the connection's demand on one output link. */
bool
reserveHop(MmrRouter &router, PortId out, const SetupRequest &req,
           VcId &out_vc)
{
    AdmissionController &admit = router.admission();
    bool admitted = false;
    if (req.klass == TrafficClass::CBR)
        admitted = admit.tryAdmitCbr(out, req.allocCycles);
    else if (req.klass == TrafficClass::VBR)
        admitted = admit.tryAdmitVbr(out, req.permCycles, req.peakCycles);
    else
        mmr_panic("EPB establishes CBR/VBR connections only");
    if (!admitted)
        return false;

    out_vc = router.routing().allocOutputVc(out);
    if (out_vc == kInvalidVc) {
        if (req.klass == TrafficClass::CBR)
            admit.releaseCbr(out, req.allocCycles);
        else
            admit.releaseVbr(out, req.permCycles, req.peakCycles);
        return false;
    }
    return true;
}

void
releaseHop(MmrRouter &router, const ReservedHop &hop,
           const SetupRequest &req)
{
    router.routing().freeOutputVc(hop.out, hop.outVc);
    if (req.klass == TrafficClass::CBR)
        router.admission().releaseCbr(hop.out, req.allocCycles);
    else
        router.admission().releaseVbr(hop.out, req.permCycles,
                                      req.peakCycles);
}

} // namespace

void
releasePath(const std::function<MmrRouter &(NodeId)> &router_at,
            const std::vector<ReservedHop> &hops, const SetupRequest &req)
{
    for (auto it = hops.rbegin(); it != hops.rend(); ++it)
        releaseHop(router_at(it->node), *it, req);
}

void
survivingDistances(const Topology &topo, NodeId dst,
                   const std::function<bool(NodeId, PortId)> &link_ok,
                   std::vector<NodeId> &queue, std::vector<unsigned> &out)
{
    constexpr unsigned inf = ~0u;
    // mmr-lint: allow(hot-path-alloc) amortized: sized by the (fixed)
    // topology once, then rewritten in place on every recompute.
    out.assign(topo.numNodes(), inf);
    out[dst] = 0;
    queue.clear();
    // mmr-lint: allow(hot-path-alloc) amortized: caller-owned scratch,
    // capacity persists across BFS recomputes.
    queue.push_back(dst);
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const NodeId n = queue[head];
        for (const auto &p : topo.ports(n)) {
            // The link is traversed neighbor -> n here, but failures
            // take out both directions.
            if (out[p.neighbor] != inf ||
                (link_ok && !link_ok(p.neighbor, p.remotePort)))
                continue;
            out[p.neighbor] = out[n] + 1;
            // mmr-lint: allow(hot-path-alloc) amortized: see above.
            queue.push_back(p.neighbor);
        }
    }
}

void
startSearch(const Topology &topo, NodeId src, EpbProbe &probe,
            SetupResult &res)
{
    probe.at = src;
    probe.searched.reset(topo);
    res.accepted = false;
    res.hops.clear();
    res.forwardSteps = 0;
    res.backtrackSteps = 0;
}

MMR_HOT_PATH EpbStep
epbStep(const SetupFabric &net, const SetupRequest &req,
        SetupPolicy policy, Rng &rng, std::vector<PortId> &cands,
        EpbProbe &probe, SetupResult &res)
{
    const NodeId at = probe.at;
    if (at == req.dst) {
        // The last hop is the destination's host link.  It is tried
        // once: if saturated, this is a dead end like any other.
        const PortId ni = net.niPortOf(at);
        if (!probe.searched.test(at, ni)) {
            probe.searched.set(at, ni);
            VcId vc = kInvalidVc;
            if (reserveHop(net.routerAt(at), ni, req, vc)) {
                // mmr-lint: allow(hot-path-alloc) amortized: the
                // caller-owned result retains hop capacity across
                // setups (SetupScratch / probe slots).
                res.hops.push_back(ReservedHop{at, ni, vc});
                return EpbStep::Reached;
            }
        }
    } else {
        // Profitable candidates: minimal-path neighbors over healthy
        // links not searched yet, in random order.
        cands.clear();
        for (const auto &p : net.topo.ports(at)) {
            if (probe.dist[p.neighbor] + 1 != probe.dist[at])
                continue;
            if (probe.searched.test(at, p.localPort))
                continue;
            if (net.linkOk && !net.linkOk(at, p.localPort))
                continue;
            // mmr-lint: allow(hot-path-alloc) amortized: caller-owned
            // scratch, capacity persists across steps.
            cands.push_back(p.localPort);
        }
        rng.shuffle(cands);
        for (PortId out : cands) {
            probe.searched.set(at, out);
            VcId vc = kInvalidVc;
            if (!reserveHop(net.routerAt(at), out, req, vc))
                continue;
            // mmr-lint: allow(hot-path-alloc) amortized: see the
            // destination-hop push above.
            res.hops.push_back(ReservedHop{at, out, vc});
            probe.at = net.topo.neighborAt(at, out);
            ++res.forwardSteps;
            return EpbStep::Forward;
        }
    }

    // Dead end: give up (greedy, or backtracked out of the source) or
    // backtrack one hop.
    if (policy == SetupPolicy::Greedy || res.hops.empty()) {
        releasePath(net.routerAt, res.hops, req);
        res.hops.clear();
        return EpbStep::Refused;
    }
    const ReservedHop hop = res.hops.back();
    res.hops.pop_back();
    releaseHop(net.routerAt(hop.node), hop, req);
    probe.at = hop.node;
    ++res.backtrackSteps;
    return EpbStep::Backtrack;
}

SetupResult
establishPath(const Topology &topo,
              const std::function<MmrRouter &(NodeId)> &router_at,
              const std::function<PortId(NodeId)> &ni_port_of,
              const SetupRequest &req, SetupPolicy policy, Rng &rng,
              const std::function<bool(NodeId, PortId)> &link_ok)
{
    SetupScratch scratch;
    SetupResult res;
    establishPath(topo, router_at, ni_port_of, req, policy, rng,
                  link_ok, scratch, res);
    return res;
}

MMR_HOT_PATH void
establishPath(const Topology &topo,
              const std::function<MmrRouter &(NodeId)> &router_at,
              const std::function<PortId(NodeId)> &ni_port_of,
              const SetupRequest &req, SetupPolicy policy, Rng &rng,
              const std::function<bool(NodeId, PortId)> &link_ok,
              SetupScratch &scratch, SetupResult &res)
{
    mmr_assert(req.src < topo.numNodes() && req.dst < topo.numNodes(),
               "setup endpoints out of range");
    mmr_assert(req.src != req.dst, "connection to self");

    EpbProbe &probe = scratch.probe;
    startSearch(topo, req.src, probe, res);
    // Minimal-path distances over the *surviving* graph: a link that
    // failed must neither count as a shortcut nor attract probes.
    survivingDistances(topo, req.dst, link_ok, scratch.bfsQueue,
                       probe.dist);
    if (probe.dist[req.src] == ~0u)
        return; // destination unreachable on surviving links

    const SetupFabric net{topo, router_at, ni_port_of, link_ok};
    for (;;) {
        switch (epbStep(net, req, policy, rng, scratch.cands, probe,
                        res)) {
          case EpbStep::Reached:
            res.accepted = true;
            return;
          case EpbStep::Refused:
            return;
          case EpbStep::Forward:
          case EpbStep::Backtrack:
            break;
        }
    }
}

} // namespace mmr
