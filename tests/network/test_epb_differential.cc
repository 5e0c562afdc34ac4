/**
 * @file
 * Differential test of the EPB connection search (§3.5, §4.2).  The
 * instantaneous establishPath() and a lone timed ProbeSetupManager
 * probe run on identically preloaded router banks with the same seed,
 * and a naive recursive EPB written from the paper's description runs
 * on a third bank.  All three must reach the same verdict, reserve the
 * same hops (node, output port and output VC) and take the same
 * number of forward and backtrack steps, on meshes, irregular LANs and
 * multistage networks, CBR and VBR, EPB and greedy, with and without
 * failed links.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "network/epb.hh"
#include "network/probe_protocol.hh"
#include "network/topology.hh"

namespace mmr
{
namespace
{

using LinkOk = std::function<bool(NodeId, PortId)>;

/** Routers shaped for a topology, preloaded from a seed so that some
 * links are saturated in bandwidth or VCs and the search backtracks. */
struct Bank
{
    std::vector<std::unique_ptr<MmrRouter>> routers;

    Bank(const Topology &t, std::uint64_t seed)
    {
        Rng rng(seed);
        for (NodeId n = 0; n < t.numNodes(); ++n) {
            RouterConfig rc;
            rc.numPorts = t.degree(n) + 1;
            rc.vcsPerPort = 4;
            rc.candidates = 2;
            rc.seed = n + 1;
            routers.push_back(std::make_unique<MmrRouter>(rc));
            MmrRouter &r = *routers.back();
            const unsigned round = rc.cyclesPerRound();
            for (PortId p = 0; p < rc.numPorts; ++p) {
                const unsigned load = static_cast<unsigned>(
                    rng.below(rng.chance(0.3) ? round + 1 : round / 2));
                if (load > 0)
                    r.admission().tryAdmitCbr(p, load);
                const auto vcs = rng.below(
                    rng.chance(0.3) ? rc.vcsPerPort + 1 : 2);
                for (std::uint64_t v = 0; v < vcs; ++v)
                    r.routing().allocOutputVc(p);
            }
        }
    }

    MmrRouter &at(NodeId n) { return *routers[n]; }
};

/** Everything observable about a bank's reservations. */
std::vector<unsigned>
ledger(const Topology &t, Bank &b)
{
    std::vector<unsigned> out;
    for (NodeId n = 0; n < t.numNodes(); ++n)
        for (PortId p = 0; p < t.degree(n) + 1; ++p) {
            out.push_back(b.at(n).admission().allocatedCycles(p));
            out.push_back(b.at(n).admission().peakCycles(p));
            out.push_back(b.at(n).routing().freeOutputVcCount(p));
        }
    return out;
}

/**
 * EPB as the paper states it, recursively: at each router try the
 * unsearched profitable links in random order, reserve the first that
 * admits, recurse, and on a dead end release that hop and search the
 * router again (re-collecting and re-shuffling its candidates).
 */
struct NaiveEpb
{
    const Topology &topo;
    Bank &bank;
    const SetupRequest &req;
    SetupPolicy policy;
    const LinkOk &ok;
    Rng rng;
    std::vector<unsigned> dist;
    std::set<std::pair<NodeId, PortId>> searched;
    SetupResult res;

    bool
    reserve(NodeId n, PortId out)
    {
        AdmissionController &a = bank.at(n).admission();
        const bool cbr = req.klass == TrafficClass::CBR;
        if (cbr ? !a.tryAdmitCbr(out, req.allocCycles)
                : !a.tryAdmitVbr(out, req.permCycles, req.peakCycles))
            return false;
        const VcId vc = bank.at(n).routing().allocOutputVc(out);
        if (vc != kInvalidVc) {
            res.hops.push_back(ReservedHop{n, out, vc});
            return true;
        }
        cbr ? a.releaseCbr(out, req.allocCycles)
            : a.releaseVbr(out, req.permCycles, req.peakCycles);
        return false;
    }

    void
    release(const ReservedHop &h)
    {
        bank.at(h.node).routing().freeOutputVc(h.out, h.outVc);
        AdmissionController &a = bank.at(h.node).admission();
        req.klass == TrafficClass::CBR
            ? a.releaseCbr(h.out, req.allocCycles)
            : a.releaseVbr(h.out, req.permCycles, req.peakCycles);
    }

    bool
    visit(NodeId at)
    {
        for (;;) {
            if (at == req.dst) {
                const PortId ni = topo.degree(at);
                return searched.insert({at, ni}).second &&
                       reserve(at, ni);
            }
            std::vector<PortId> cands;
            for (const auto &p : topo.ports(at))
                if (dist[p.neighbor] + 1 == dist[at] &&
                    !searched.count({at, p.localPort}) &&
                    (!ok || ok(at, p.localPort)))
                    cands.push_back(p.localPort);
            rng.shuffle(cands);
            PortId taken = kInvalidPort;
            for (PortId out : cands) {
                searched.insert({at, out});
                if (reserve(at, out)) {
                    taken = out;
                    break;
                }
            }
            if (taken == kInvalidPort)
                return false;
            ++res.forwardSteps;
            if (visit(topo.neighborAt(at, taken)))
                return true;
            if (policy == SetupPolicy::Greedy)
                return false;
            release(res.hops.back());
            res.hops.pop_back();
            ++res.backtrackSteps;
        }
    }

    SetupResult
    run()
    {
        dist.assign(topo.numNodes(), ~0u);
        dist[req.dst] = 0;
        std::deque<NodeId> queue{req.dst};
        for (; !queue.empty(); queue.pop_front())
            for (const auto &p : topo.ports(queue.front()))
                if (dist[p.neighbor] == ~0u &&
                    (!ok || ok(p.neighbor, p.remotePort))) {
                    dist[p.neighbor] = dist[queue.front()] + 1;
                    queue.push_back(p.neighbor);
                }
        if (dist[req.src] != ~0u)
            res.accepted = visit(req.src);
        if (!res.accepted) {
            for (auto it = res.hops.rbegin(); it != res.hops.rend(); ++it)
                release(*it);
            res.hops.clear();
        }
        return res;
    }
};

Topology
topologyFor(std::uint64_t seed)
{
    Rng rng(seed * 7919 + 1);
    switch (seed % 3) {
      case 0:
        return Topology::mesh2d(4, 4);
      case 1:
        return Topology::irregular(16, 8, 4, rng);
      default:
        return Topology::multistage(2, 4); // min:2:4
    }
}

void
expectSameSearch(const SetupResult &a, const SetupResult &b,
                 const char *what, std::uint64_t seed)
{
    EXPECT_EQ(a.accepted, b.accepted) << what << ", seed " << seed;
    EXPECT_EQ(a.forwardSteps, b.forwardSteps) << what << ", seed " << seed;
    EXPECT_EQ(a.backtrackSteps, b.backtrackSteps)
        << what << ", seed " << seed;
    ASSERT_EQ(a.hops.size(), b.hops.size()) << what << ", seed " << seed;
    for (std::size_t i = 0; i < a.hops.size(); ++i) {
        EXPECT_EQ(a.hops[i].node, b.hops[i].node) << what << " hop " << i;
        EXPECT_EQ(a.hops[i].out, b.hops[i].out) << what << " hop " << i;
        EXPECT_EQ(a.hops[i].outVc, b.hops[i].outVc)
            << what << " hop " << i;
    }
}

TEST(EpbDifferential, SynchronousTimedAndNaiveSearchesAgree)
{
    unsigned accepted = 0, refused = 0, backtracked = 0;
    for (std::uint64_t seed = 1; seed <= 240; ++seed) {
        const Topology topo = topologyFor(seed);
        Rng pick(seed ^ 0x5eedULL);

        SetupRequest req;
        req.src = static_cast<NodeId>(pick.below(topo.numNodes()));
        do {
            req.dst = static_cast<NodeId>(pick.below(topo.numNodes()));
        } while (req.dst == req.src);
        if ((seed / 3) % 2 == 0) {
            req.klass = TrafficClass::CBR;
            req.allocCycles = 1 + static_cast<unsigned>(pick.below(3));
        } else {
            req.klass = TrafficClass::VBR;
            req.permCycles = 1 + static_cast<unsigned>(pick.below(2));
            req.peakCycles =
                req.permCycles + static_cast<unsigned>(pick.below(4));
        }
        const SetupPolicy policy = (seed / 6) % 2 == 0
                                       ? SetupPolicy::Epb
                                       : SetupPolicy::Greedy;
        // Every fourth seed fails ~15% of the links (both directions).
        std::set<std::pair<NodeId, NodeId>> down;
        if (seed % 4 == 0)
            for (NodeId n = 0; n < topo.numNodes(); ++n)
                for (const auto &p : topo.ports(n))
                    if (n < p.neighbor && pick.chance(0.15))
                        down.insert({n, p.neighbor});
        const LinkOk ok = [&](NodeId n, PortId port) {
            const NodeId m = topo.neighborAt(n, port);
            return !down.count({std::min(n, m), std::max(n, m)});
        };
        const auto ni_of = [&](NodeId n) {
            return static_cast<PortId>(topo.degree(n));
        };

        Bank sync_bank(topo, seed), timed_bank(topo, seed),
            naive_bank(topo, seed);

        Rng rng(seed);
        const SetupResult sync = establishPath(
            topo, [&](NodeId n) -> MmrRouter & { return sync_bank.at(n); },
            ni_of, req, policy, rng, ok);

        SetupResult timed;
        bool done = false;
        ProbeSetupManager mgr(
            topo, [&](NodeId n) -> MmrRouter & { return timed_bank.at(n); },
            ni_of,
            [&](const TimedSetup &s) {
                done = true;
                timed.accepted = s.state == SetupState::Established;
                timed.hops = s.hops;
                timed.forwardSteps = s.forwardSteps;
                timed.backtrackSteps = s.backtrackSteps;
            },
            seed);
        mgr.setLinkAlive(ok);
        mgr.begin(req, policy, 0);
        for (Cycle now = 0; !done && now < 100000; ++now)
            mgr.step(now);
        ASSERT_TRUE(done) << "probe never completed, seed " << seed;

        const SetupResult naive =
            NaiveEpb{topo, naive_bank, req, policy, ok, Rng(seed), {},
                     {}, {}}
                .run();

        expectSameSearch(sync, timed, "sync vs timed", seed);
        expectSameSearch(sync, naive, "sync vs naive", seed);
        EXPECT_EQ(ledger(topo, sync_bank), ledger(topo, timed_bank))
            << "seed " << seed;
        EXPECT_EQ(ledger(topo, sync_bank), ledger(topo, naive_bank))
            << "seed " << seed;

        (sync.accepted ? accepted : refused) += 1;
        backtracked += sync.backtrackSteps > 0;
    }
    // The preload must exercise every outcome, or agreement is vacuous.
    EXPECT_GT(accepted, 30u);
    EXPECT_GT(refused, 30u);
    EXPECT_GT(backtracked, 10u);
}

} // namespace
} // namespace mmr
