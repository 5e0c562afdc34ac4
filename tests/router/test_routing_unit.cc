/**
 * @file
 * Unit tests for the Routing and Arbitration Unit (§3.5): the free-VC
 * pools and the output-VC owner table, directly and through the
 * router that keeps each mapping in its input VC's VcState.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "base/rng.hh"
#include "router/router.hh"
#include "router/routing_unit.hh"

namespace mmr
{
namespace
{

TEST(RoutingUnit, AllVcsStartFree)
{
    RoutingUnit r(4, 16);
    for (PortId p = 0; p < 4; ++p) {
        EXPECT_EQ(r.freeInputVcCount(p), 16u);
        EXPECT_EQ(r.freeOutputVcCount(p), 16u);
    }
}

TEST(RoutingUnit, AllocLowestFirstAndExhausts)
{
    RoutingUnit r(1, 3);
    EXPECT_EQ(r.allocInputVc(0), 0u);
    EXPECT_EQ(r.allocInputVc(0), 1u);
    EXPECT_EQ(r.allocInputVc(0), 2u);
    EXPECT_EQ(r.allocInputVc(0), kInvalidVc);
    EXPECT_EQ(r.freeInputVcCount(0), 0u);
}

TEST(RoutingUnit, FreeMakesVcReusable)
{
    RoutingUnit r(1, 2);
    ASSERT_EQ(r.allocOutputVc(0), 0u);
    ASSERT_EQ(r.allocOutputVc(0), 1u);
    r.freeOutputVc(0, 0);
    EXPECT_EQ(r.allocOutputVc(0), 0u) << "lowest free VC is reused";
}

TEST(RoutingUnit, InputAndOutputPoolsAreSeparate)
{
    RoutingUnit r(1, 2);
    ASSERT_EQ(r.allocInputVc(0), 0u);
    EXPECT_EQ(r.allocOutputVc(0), 0u)
        << "input allocation must not consume output VCs";
}

TEST(RoutingUnit, UnmapReleasesTheOutputOwner)
{
    RoutingUnit r(4, 8);
    const ChannelRef in{1, 3};
    const ChannelRef out{2, 5};
    r.map(in, out);
    r.unmap(in, out);
    // The output channel has no owner again, so another input VC may
    // take it.
    r.map(ChannelRef{3, 0}, out);
    r.unmap(ChannelRef{3, 0}, out);
}

TEST(RoutingUnitDeath, DoubleMapPanics)
{
    RoutingUnit r(2, 2);
    r.map(ChannelRef{0, 0}, ChannelRef{1, 0});
    EXPECT_DEATH(r.map(ChannelRef{0, 1}, ChannelRef{1, 0}),
                 "output channel already mapped");
}

TEST(RoutingUnitDeath, DoubleFreePanics)
{
    RoutingUnit r(1, 2);
    const VcId v = r.allocInputVc(0);
    r.freeInputVc(0, v);
    EXPECT_DEATH(r.freeInputVc(0, v), "double free");
}

TEST(RoutingUnitDeath, UnmapUnmappedPanics)
{
    RoutingUnit r(2, 2);
    EXPECT_DEATH(r.unmap(ChannelRef{0, 0}, ChannelRef{1, 0}),
                 "no such mapping");
    r.map(ChannelRef{0, 0}, ChannelRef{1, 0});
    EXPECT_DEATH(r.unmap(ChannelRef{0, 1}, ChannelRef{1, 0}),
                 "no such mapping")
        << "only the owning input channel may unmap";
}

// ---------------------------------------------------------------------
// Ownership through the router: the direct mapping lives in VcState,
// the owner table in the routing unit, and they must agree.
// ---------------------------------------------------------------------

RouterConfig
ownershipConfig()
{
    RouterConfig cfg;
    cfg.numPorts = 4;
    cfg.vcsPerPort = 4;
    cfg.vcBufferFlits = 4;
    cfg.roundFactorK = 2;
    cfg.candidates = 2;
    cfg.seed = 5;
    return cfg;
}

/** (outPort, outVc) of every bound input VC, one entry per VC. */
std::vector<std::pair<PortId, VcId>>
boundMappings(MmrRouter &r)
{
    std::vector<std::pair<PortId, VcId>> out;
    for (PortId p = 0; p < r.config().numPorts; ++p) {
        VcMemory &mem = r.inputMemory(p);
        for (VcId v = 0; v < mem.numVcs(); ++v) {
            if (mem.vc(v).bound())
                out.emplace_back(mem.vc(v).outPort(), mem.vc(v).outVc());
        }
    }
    return out;
}

TEST(RoutingOwnershipDeath, SecondSegmentOnAMappedOutputVcPanics)
{
    MmrRouter r(ownershipConfig());
    const ConnId c = r.openBestEffort(0, 1);
    ASSERT_NE(c, kInvalidConn);
    const SegmentParams held = *r.connection(c);

    SegmentParams p;
    p.id = 1000;
    p.klass = TrafficClass::BestEffort;
    p.in = 2;
    p.inVc = r.routing().allocInputVc(2);
    p.out = held.out;
    p.outVc = held.outVc;
    EXPECT_DEATH(r.installSegment(p), "output channel already mapped");
}

TEST(RoutingOwnership, InstallOnABoundInputVcChangesNothing)
{
    MmrRouter r(ownershipConfig());
    const ConnId c = r.openBestEffort(0, 1);
    ASSERT_NE(c, kInvalidConn);
    const SegmentParams held = *r.connection(c);
    const VcId spare_out = r.routing().allocOutputVc(2);
    ASSERT_NE(spare_out, kInvalidVc);

    std::vector<unsigned> free_in, free_out;
    for (PortId p = 0; p < 4; ++p) {
        free_in.push_back(r.routing().freeInputVcCount(p));
        free_out.push_back(r.routing().freeOutputVcCount(p));
    }

    SegmentParams p;
    p.id = 1000;
    p.klass = TrafficClass::BestEffort;
    p.in = held.in;
    p.inVc = held.inVc;
    p.out = 2;
    p.outVc = spare_out;
    EXPECT_FALSE(r.installSegment(p));

    EXPECT_EQ(r.connectionCount(), 1u);
    EXPECT_EQ(r.connection(1000), nullptr);
    const VcState &vc = r.inputMemory(held.in).vc(held.inVc);
    EXPECT_EQ(vc.conn(), c);
    EXPECT_EQ(vc.outPort(), held.out);
    EXPECT_EQ(vc.outVc(), held.outVc);
    for (PortId q = 0; q < 4; ++q) {
        EXPECT_EQ(r.routing().freeInputVcCount(q), free_in[q]);
        EXPECT_EQ(r.routing().freeOutputVcCount(q), free_out[q]);
    }
    // The refused segment never took output (2, spare_out): another
    // input VC can still map onto it.
    p.id = 1001;
    p.in = 3;
    p.inVc = r.routing().allocInputVc(3);
    EXPECT_TRUE(r.installSegment(p));
}

/**
 * Model test: random opens and closes on a small router.  After every
 * step, the bound VCs map to distinct output VCs, and on every port
 * the free output VCs plus the mapped ones (and the free input VCs
 * plus the bound ones) add up to the port's VCs.
 */
TEST(RoutingOwnership, RandomOpenCloseKeepsOwnersConsistent)
{
    const RouterConfig cfg = ownershipConfig();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        MmrRouter r(cfg);
        Rng rng(seed);
        std::vector<ConnId> open;
        unsigned opened = 0, refused = 0, closed = 0;
        for (int step = 0; step < 2000; ++step) {
            const double action = rng.uniform();
            if (action < 0.3 && !open.empty()) {
                const std::size_t k = rng.below(open.size());
                ASSERT_TRUE(r.close(open[k])) << "seed " << seed;
                open[k] = open.back();
                open.pop_back();
                ++closed;
            } else {
                const auto in = static_cast<PortId>(rng.below(4));
                const auto out = static_cast<PortId>(rng.below(4));
                const ConnId c =
                    action < 0.65
                        ? r.openCbr(in, out,
                                    cfg.linkRateBps *
                                        rng.uniform(0.01, 0.3))
                        : r.openBestEffort(in, out);
                if (c == kInvalidConn) {
                    ++refused;
                } else {
                    open.push_back(c);
                    ++opened;
                }
            }

            ASSERT_EQ(r.connectionCount(), open.size()) << "seed " << seed;
            const auto mapped = boundMappings(r);
            ASSERT_EQ(mapped.size(), open.size()) << "seed " << seed;
            const std::set<std::pair<PortId, VcId>> distinct(
                mapped.begin(), mapped.end());
            ASSERT_EQ(distinct.size(), mapped.size())
                << "two input VCs share an output VC, seed " << seed
                << " step " << step;
            for (PortId p = 0; p < cfg.numPorts; ++p) {
                unsigned onto = 0, from = 0;
                for (const auto &[port, vc] : mapped)
                    onto += port == p;
                VcMemory &mem = r.inputMemory(p);
                for (VcId v = 0; v < mem.numVcs(); ++v)
                    from += mem.vc(v).bound();
                ASSERT_EQ(r.routing().freeOutputVcCount(p) + onto,
                          cfg.vcsPerPort)
                    << "seed " << seed << " step " << step << " port " << p;
                ASSERT_EQ(r.routing().freeInputVcCount(p) + from,
                          cfg.vcsPerPort)
                    << "seed " << seed << " step " << step << " port " << p;
            }
        }
        // The walk reached VC exhaustion and came back.
        EXPECT_GT(opened, 200u) << "seed " << seed;
        EXPECT_GT(refused, 50u) << "seed " << seed;
        EXPECT_GT(closed, 200u) << "seed " << seed;
    }
}

} // namespace
} // namespace mmr
