/**
 * @file
 * up*-down* routing with minimal-adaptive selection (§3.5, refs [26],
 * [27]).
 *
 * The MMR routes best-effort packets with "a fully adaptive routing
 * algorithm that has been proposed for wormhole networks with
 * irregular topology and is valid for VCT switching" (Silla & Duato).
 * The deadlock-free substrate is up*-down*: a BFS spanning tree
 * assigns each node a level; a link is "up" toward the root (lower
 * level, node id breaking ties) and a legal route never uses an up
 * link after a down link.  The adaptive layer picks, among the legal
 * next hops, one that makes progress toward the destination, falling
 * back to any legal hop when no profitable legal hop exists.
 */

#ifndef MMR_NETWORK_UPDOWN_HH
#define MMR_NETWORK_UPDOWN_HH

#include <functional>
#include <vector>

#include "base/rng.hh"
#include "network/topology.hh"

namespace mmr
{

class UpDownRouting
{
  public:
    /** Link-health predicate: false when the a<->b link has failed. */
    using LinkFilter = std::function<bool(NodeId, NodeId)>;

    /**
     * @param topo the physical topology
     * @param root spanning-tree root
     * @param filter optional health filter — dead links are excluded
     *        from the tree and from every route.  With a filter the
     *        surviving graph may be disconnected; unroutable pairs
     *        simply have no legal next hops.
     */
    UpDownRouting(const Topology &topo, NodeId root = 0,
                  LinkFilter filter = {});

    /** BFS level of a node (root is 0). */
    unsigned level(NodeId n) const;

    /** True when traversing from -> to goes "up" (toward the root). */
    bool isUp(NodeId from, NodeId to) const;

    /**
     * Legal next hops from @p at toward @p dst, in port order.
     * @param down_phase true once the packet has used a down link
     * @param hops caller-owned scratch, cleared and filled with the
     *        neighbor nodes reachable without violating up*-down*
     *        (a warm caller allocates nothing)
     */
    void legalNextHops(NodeId at, NodeId dst, bool down_phase,
                       std::vector<NodeId> &hops) const;

    /**
     * Adaptive choice: a profitable (distance-reducing) legal hop if
     * any exists, otherwise any legal hop that stays on a working
     * up*-down* route; kInvalidNode when the packet cannot move.
     *
     * @param rng breaks ties among equally good hops
     */
    NodeId adaptiveNextHop(NodeId at, NodeId dst, bool down_phase,
                           Rng &rng) const;

    /**
     * Whether @p dst remains reachable from @p at given the phase —
     * used to prove routes exist (livelock check in tests).
     */
    bool reachable(NodeId at, NodeId dst, bool down_phase) const;

    const Topology &topology() const { return topo; }

  private:
    /** Distance to dst honoring the up*-down* phase automaton. */
    std::vector<unsigned> phaseDistances(NodeId dst) const;

    /** The cached phaseDistances() of @p dst, computed on first use. */
    const std::vector<unsigned> &distancesTo(NodeId dst) const;

    /**
     * Remaining distance to the destination of @p dist after the hop
     * at -> m; UINT_MAX when the link is down, the hop would go up
     * after down, or the destination is unreachable from there.
     */
    unsigned hopDistance(NodeId at, NodeId m, bool down_phase,
                         const std::vector<unsigned> &dist) const;

    bool linkOk(NodeId a, NodeId b) const
    {
        return !filter || filter(a, b);
    }

    /** BFS levels over the surviving links only. */
    std::vector<unsigned> filteredBfs(NodeId root) const;

    const Topology &topo;
    LinkFilter filter;
    std::vector<unsigned> levels;
    /**
     * Distance matrices in the phase automaton, computed lazily per
     * destination and cached: index [dst][node * 2 + phase], phase 1
     * meaning the packet has already gone down.
     */
    mutable std::vector<std::vector<unsigned>> distCache;
};

} // namespace mmr

#endif // MMR_NETWORK_UPDOWN_HH
