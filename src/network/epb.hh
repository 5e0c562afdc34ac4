/**
 * @file
 * Connection establishment by Exhaustive Profitable Backtracking
 * (§3.5, §4.2; Gaughan & Yalamanchili [17]).
 *
 * "Exhaustive profitable backtracking (EPB) will be used when
 * establishing connections.  This algorithm performs an exhaustive
 * search of the minimal paths in the network until a valid path is
 * found or the probe backtracks to the source node."  At every hop
 * the probe reserves link bandwidth (admission registers) and an
 * output virtual channel; when no unsearched profitable link remains
 * it backtracks, releasing the hop's resources and recording the link
 * in the history store so it is never searched twice.
 *
 * The search is one step function, epbStep(): one probe action
 * against the routers' real admission and VC state — reserve a link
 * and move forward, backtrack one hop, or refuse.  Two drivers call
 * it.  establishPath() loops it to completion in zero simulated time;
 * its step counts convert into setup latency via kProbeHopCycles.
 * The timed ProbeSetupManager (probe_protocol.hh) calls it once per
 * kProbeHopCycles and wraps the acknowledgment walk, message loss and
 * the source timer around it.  A greedy non-backtracking policy is
 * the baseline for the network_epb and setup_latency benches.
 */

#ifndef MMR_NETWORK_EPB_HH
#define MMR_NETWORK_EPB_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "base/rng.hh"
#include "network/topology.hh"
#include "router/router.hh"

namespace mmr
{

enum class SetupPolicy
{
    Epb,   ///< exhaustive profitable backtracking
    Greedy ///< first profitable link only; fail on a dead end
};

/** Resource demand of the connection being established. */
struct SetupRequest
{
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    TrafficClass klass = TrafficClass::CBR;
    unsigned allocCycles = 0; ///< CBR demand (cycles/round)
    unsigned permCycles = 0;  ///< VBR permanent demand
    unsigned peakCycles = 0;  ///< VBR peak demand
};

/** One reserved hop: the output side of a router along the path. */
struct ReservedHop
{
    NodeId node = kInvalidNode;
    PortId out = kInvalidPort;
    VcId outVc = kInvalidVc;
};

struct SetupResult
{
    bool accepted = false;
    /** Reserved hops from the source router to the destination NI
     * port (the last hop's out is the NI port of dst). */
    std::vector<ReservedHop> hops;
    unsigned forwardSteps = 0;
    unsigned backtrackSteps = 0;
};

/**
 * Flit cycles one probe, backtrack or acknowledgment message takes per
 * hop: these are short control messages handled during switch
 * reconfiguration cycles (§3.4).  The timed protocol waits this long
 * between actions, and the instantaneous path converts its step
 * counts into a modeled setup latency with it.
 */
constexpr Cycle kProbeHopCycles = 2;

/**
 * The history store of §3.5: the output links a probe has searched at
 * each router, so no link is searched twice.  (The hardware keeps it
 * per input virtual channel; a probe occupies exactly one input VC per
 * visited router, so carrying it with the probe is equivalent.)  A
 * flat bit table: node n's bits live in words [n * wordsPerNode,
 * (n + 1) * wordsPerNode), bit p is output port p, the host-interface
 * port included.
 */
class SearchHistory
{
  public:
    /** Size and clear for a topology's nodes (degree + 1 ports each). */
    void
    reset(const Topology &topo)
    {
        wordsPerNode = (topo.maxDegree() + 1 + 63) / 64;
        // mmr-lint: allow(hot-path-alloc) amortized: sized by the
        // (fixed) topology, capacity persists across searches.
        words.assign(topo.numNodes() * wordsPerNode, 0);
    }

    bool
    test(NodeId n, PortId port) const
    {
        return (words[n * wordsPerNode + port / 64] >> (port % 64)) & 1u;
    }

    void
    set(NodeId n, PortId port)
    {
        words[n * wordsPerNode + port / 64] |= std::uint64_t{1}
                                               << (port % 64);
    }

  private:
    std::vector<std::uint64_t> words;
    std::size_t wordsPerNode = 0;
};

/** What one probe carries from search step to search step. */
struct EpbProbe
{
    NodeId at = kInvalidNode;   ///< router the probe is at
    std::vector<unsigned> dist; ///< hop distances to the destination
    SearchHistory searched;
};

/** Put @p probe at the source of a new search and clear @p res. */
void startSearch(const Topology &topo, NodeId src, EpbProbe &probe,
                 SetupResult &res);

/** The routers and links a search runs against. */
struct SetupFabric
{
    const Topology &topo;
    const std::function<MmrRouter &(NodeId)> &routerAt;
    /** The host-interface port index of each node. */
    const std::function<PortId(NodeId)> &niPortOf;
    /** False when the directed link out of a node through a port has
     * failed (fault injection); empty when every link is healthy. */
    const std::function<bool(NodeId, PortId)> &linkOk;
};

/** What one search step did. */
enum class EpbStep
{
    Forward,   ///< reserved a link and moved over it
    Backtrack, ///< dead end: released the last hop and moved back
    Reached,   ///< reserved the destination's host link: path complete
    Refused    ///< gave up; every reservation is released
};

/**
 * One EPB action for @p probe.  At the destination it tries, once, to
 * reserve the host link.  Elsewhere it tries the unsearched,
 * profitable (minimal-path), healthy output links in random order and
 * moves over the first that admits the demand.  A dead end backtracks
 * one hop; under Greedy, or with nothing left to backtrack, it
 * refuses.  Reserved hops and step counts accumulate in @p res, whose
 * accepted flag the caller owns.  @p cands is candidate scratch.
 */
EpbStep epbStep(const SetupFabric &net, const SetupRequest &req,
                SetupPolicy policy, Rng &rng, std::vector<PortId> &cands,
                EpbProbe &probe, SetupResult &res);

/** Release the output VCs and bandwidth of @p hops, last hop first. */
void releasePath(const std::function<MmrRouter &(NodeId)> &router_at,
                 const std::vector<ReservedHop> &hops,
                 const SetupRequest &req);

/**
 * What establishPath reuses across calls: its one probe plus the BFS
 * queue and candidate list.  Capacity persists, so a warmed caller
 * allocates nothing per setup.
 */
struct SetupScratch
{
    EpbProbe probe;
    std::vector<NodeId> bfsQueue;
    std::vector<PortId> cands;
};

/**
 * Run the search to completion in zero simulated time.  On failure
 * every reservation is released.
 *
 * @param topo the router graph
 * @param router_at accessor for the per-node routers
 * @param ni_port_of the host-interface port index of each node
 * @param req connection demand
 * @param policy Epb or Greedy
 * @param rng randomizes the order profitable links are tried
 * @param link_ok optional health filter (see SetupFabric::linkOk)
 */
SetupResult establishPath(
    const Topology &topo,
    const std::function<MmrRouter &(NodeId)> &router_at,
    const std::function<PortId(NodeId)> &ni_port_of,
    const SetupRequest &req, SetupPolicy policy, Rng &rng,
    const std::function<bool(NodeId, PortId)> &link_ok = {});

/**
 * Scratch-backed form for setup hot paths: @p res is fully
 * overwritten and its hop capacity, like @p scratch's, persists.
 * Semantics and RNG draws are those of the overload above, which
 * delegates here.
 */
void establishPath(
    const Topology &topo,
    const std::function<MmrRouter &(NodeId)> &router_at,
    const std::function<PortId(NodeId)> &ni_port_of,
    const SetupRequest &req, SetupPolicy policy, Rng &rng,
    const std::function<bool(NodeId, PortId)> &link_ok,
    SetupScratch &scratch, SetupResult &res);

/**
 * BFS hop distances to @p dst over the links @p link_ok accepts, into
 * @p out (~0u where unreachable); @p queue is BFS scratch.  Failures
 * take out both directions of a link.
 */
void survivingDistances(
    const Topology &topo, NodeId dst,
    const std::function<bool(NodeId, PortId)> &link_ok,
    std::vector<NodeId> &queue, std::vector<unsigned> &out);

} // namespace mmr

#endif // MMR_NETWORK_EPB_HH
