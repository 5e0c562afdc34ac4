/**
 * @file
 * Tests for up*-down* adaptive routing (§3.5): direction labeling,
 * route legality, reachability and livelock-freedom of the adaptive
 * next-hop choice.
 */

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "network/topology.hh"
#include "network/updown.hh"

namespace mmr
{
namespace
{

TEST(UpDown, LevelsComeFromBfs)
{
    const Topology t = Topology::star(4);
    const UpDownRouting ud(t, 0);
    EXPECT_EQ(ud.level(0), 0u);
    for (NodeId n = 1; n <= 4; ++n)
        EXPECT_EQ(ud.level(n), 1u);
}

TEST(UpDown, DirectionIsAntisymmetric)
{
    Rng rng(3);
    const Topology t = Topology::irregular(12, 5, 4, rng);
    const UpDownRouting ud(t);
    for (NodeId n = 0; n < t.numNodes(); ++n) {
        for (const auto &p : t.ports(n)) {
            EXPECT_NE(ud.isUp(n, p.neighbor), ud.isUp(p.neighbor, n))
                << "every link has exactly one up direction";
        }
    }
}

TEST(UpDown, RootIsAboveItsNeighbors)
{
    const Topology t = Topology::mesh2d(3, 3);
    const UpDownRouting ud(t, 4); // center as root
    for (const auto &p : t.ports(4))
        EXPECT_TRUE(ud.isUp(p.neighbor, 4));
}

TEST(UpDown, LegalHopsNeverGoUpAfterDown)
{
    Rng rng(4);
    const Topology t = Topology::irregular(14, 6, 4, rng);
    const UpDownRouting ud(t);
    std::vector<NodeId> hops;
    for (NodeId at = 0; at < t.numNodes(); ++at) {
        for (NodeId dst = 0; dst < t.numNodes(); ++dst) {
            if (at == dst)
                continue;
            ud.legalNextHops(at, dst, true, hops);
            for (NodeId hop : hops)
                EXPECT_FALSE(ud.isUp(at, hop))
                    << "up move offered in the down phase";
        }
    }
}

TEST(UpDown, EveryPairReachableInPhaseZero)
{
    Rng rng(5);
    const Topology t = Topology::irregular(16, 4, 4, rng);
    const UpDownRouting ud(t);
    for (NodeId a = 0; a < t.numNodes(); ++a)
        for (NodeId b = 0; b < t.numNodes(); ++b)
            EXPECT_TRUE(ud.reachable(a, b, false))
                << a << " -> " << b;
}

TEST(UpDown, TreeTopologyFollowsTreePath)
{
    // On a star, any leaf-to-leaf route goes through the hub in
    // exactly two hops: up then down.
    const Topology t = Topology::star(4);
    const UpDownRouting ud(t, 0);
    Rng rng(6);
    const NodeId hop = ud.adaptiveNextHop(1, 3, false, rng);
    EXPECT_EQ(hop, 0u);
    const NodeId hop2 = ud.adaptiveNextHop(0, 3, false, rng);
    EXPECT_EQ(hop2, 3u);
}

/**
 * Livelock freedom: following adaptiveNextHop step by step always
 * reaches the destination within 2 x diameter-ish hops, on random
 * irregular graphs, from every source, in both phases.
 */
class UpDownWalkProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(UpDownWalkProperty, AdaptiveWalksTerminate)
{
    Rng rng(GetParam());
    const Topology t = Topology::irregular(18, 8, 5, rng);
    const UpDownRouting ud(t);
    Rng walk_rng(GetParam() * 31 + 1);
    for (NodeId src = 0; src < t.numNodes(); ++src) {
        for (NodeId dst = 0; dst < t.numNodes(); ++dst) {
            if (src == dst)
                continue;
            NodeId at = src;
            bool down = false;
            unsigned hops = 0;
            const unsigned bound = 4 * t.numNodes();
            while (at != dst) {
                const NodeId next =
                    ud.adaptiveNextHop(at, dst, down, walk_rng);
                ASSERT_NE(next, kInvalidNode)
                    << "stuck at " << at << " for " << dst;
                down = down || !ud.isUp(at, next);
                at = next;
                ASSERT_LE(++hops, bound) << "livelock " << src << "->"
                                         << dst;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpDownWalkProperty,
                         ::testing::Values(10, 20, 30, 40, 50));

TEST(UpDown, MeshRoutesAreNearMinimal)
{
    // On a mesh rooted at a corner, adaptive up*-down* paths are within
    // 2x the Manhattan distance (up*-down* can detour via the root
    // region but the phase-automaton distance bounds the walk).
    const Topology t = Topology::mesh2d(4, 4);
    const UpDownRouting ud(t, 0);
    Rng rng(7);
    for (NodeId src = 0; src < 16; ++src) {
        for (NodeId dst = 0; dst < 16; ++dst) {
            if (src == dst)
                continue;
            NodeId at = src;
            bool down = false;
            unsigned hops = 0;
            while (at != dst && hops < 64) {
                const NodeId next = ud.adaptiveNextHop(at, dst, down, rng);
                ASSERT_NE(next, kInvalidNode);
                down = down || !ud.isUp(at, next);
                at = next;
                ++hops;
            }
            EXPECT_LE(hops, 2 * t.distance(src, dst) + 2);
        }
    }
}

} // namespace
} // namespace mmr
