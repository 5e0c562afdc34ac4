/**
 * @file
 * Focused tests for the asynchronous VCT cut-through path (§3.4):
 * port claiming, interaction with the synchronous matching, and the
 * "busy during link arbitration for the next flit cycle" rule.
 */

#include <gtest/gtest.h>

#include <vector>

#include "router/router.hh"
#include "sim/kernel.hh"

namespace mmr
{
namespace
{

RouterConfig
cfg()
{
    RouterConfig c;
    c.numPorts = 4;
    c.vcsPerPort = 8;
    c.vcBufferFlits = 8;
    c.candidates = 4;
    c.seed = 5;
    return c;
}

struct Delivery
{
    PortId out;
    Flit flit;
    Cycle when;
};

class BypassTest : public ::testing::Test
{
  protected:
    BypassTest() : router(cfg())
    {
        router.setSink([this](PortId out, VcId, const Flit &f, Cycle t) {
            deliveries.push_back(Delivery{out, f, t});
        });
        kernel.add(&router);
    }

    MmrRouter router;
    Kernel kernel;
    std::vector<Delivery> deliveries;
};

TEST_F(BypassTest, CutThroughClaimsPortsForNextArbitration)
{
    // A stream wants output 2 every cycle; a control packet cuts
    // through output 2 at cycle 0, so the stream's first flit cannot
    // be granted in the arbitration running concurrently (§3.4: the
    // port is busy for the next flit cycle's arbitration).
    const ConnId stream = router.openCbr(0, 2, 1.0 * kGbps);
    for (int i = 0; i < 4; ++i) {
        Flit f;
        f.seq = static_cast<std::uint32_t>(i);
        ASSERT_TRUE(router.inject(stream, f));
    }
    Flit ctl;
    ctl.conn = 777;
    ctl.setReadyTime(0);
    router.offerControl(1, 2, ctl);

    kernel.run(10);
    ASSERT_GE(deliveries.size(), 5u);
    // Control left during cycle 0.
    EXPECT_EQ(deliveries[0].flit.klass, TrafficClass::Control);
    EXPECT_EQ(deliveries[0].when, 0u);
    // The stream's first flit cannot leave at cycle 1: the matching
    // applied at cycle 1 was computed while output 2 was masked.
    EXPECT_EQ(deliveries[1].flit.klass, TrafficClass::CBR);
    EXPECT_GE(deliveries[1].when, 2u);
}

TEST_F(BypassTest, DistinctPortsCutThroughTogether)
{
    Flit a, b;
    a.conn = 1;
    b.conn = 2;
    router.offerControl(0, 1, a);
    router.offerControl(2, 3, b);
    kernel.run(1);
    EXPECT_EQ(deliveries.size(), 2u);
    EXPECT_EQ(router.bypassHits(), 2u);
}

TEST_F(BypassTest, SameOutputSecondPacketFallsBack)
{
    Flit a, b;
    a.conn = 1;
    b.conn = 2;
    router.offerControl(0, 1, a);
    router.offerControl(2, 1, b); // same output: must not cut through
    kernel.run(8);
    EXPECT_EQ(router.bypassHits(), 1u);
    EXPECT_EQ(router.bypassMisses(), 1u);
    EXPECT_EQ(deliveries.size(), 2u) << "the loser is scheduled";
    EXPECT_EQ(router.controlDrops(), 0u);
}

TEST_F(BypassTest, SameInputSecondPacketFallsBack)
{
    Flit a, b;
    a.conn = 1;
    b.conn = 2;
    router.offerControl(0, 1, a);
    router.offerControl(0, 2, b); // same input link
    kernel.run(8);
    EXPECT_EQ(router.bypassHits(), 1u);
    EXPECT_EQ(router.bypassMisses(), 1u);
    EXPECT_EQ(deliveries.size(), 2u);
}

TEST_F(BypassTest, ControlChannelIsReusedAcrossPackets)
{
    // Repeatedly blocked control packets share one lazily-created
    // control channel per (in, out) pair instead of exhausting VCs.
    const ConnId stream = router.openCbr(0, 2, 1.0 * kGbps);
    const unsigned before_in = router.routing().freeInputVcCount(1);
    for (int round = 0; round < 6; ++round) {
        Flit f;
        f.seq = static_cast<std::uint32_t>(round);
        router.inject(stream, f);
        Flit ctl;
        ctl.conn = 900 + round;
        ctl.setReadyTime(kernel.now());
        router.offerControl(1, 2, ctl);
        kernel.run(3);
    }
    kernel.run(20);
    // At most one control VC was consumed on input port 1.
    EXPECT_GE(router.routing().freeInputVcCount(1), before_in - 1);
    EXPECT_EQ(router.controlDrops(), 0u);
    unsigned control_seen = 0;
    for (const Delivery &d : deliveries)
        control_seen += (d.flit.klass == TrafficClass::Control);
    EXPECT_EQ(control_seen, 6u);
}

TEST_F(BypassTest, PhitBufferCapacityBoundsControlAcceptance)
{
    // The phit buffer holds 4 flits (one decode period + headroom);
    // a burst beyond that is refused — link-level back-pressure on
    // probes (§3.2).
    unsigned accepted = 0;
    for (int i = 0; i < 10; ++i) {
        Flit f;
        f.conn = static_cast<ConnId>(i);
        if (router.offerControl(0, 1, f))
            ++accepted;
    }
    EXPECT_EQ(accepted, 4u);
    EXPECT_EQ(router.phitBufferDepth(0), 4u);
    EXPECT_EQ(router.controlDrops(), 6u);
    // The buffer drains as the cycles advance and all accepted
    // packets eventually deliver.
    kernel.run(12);
    EXPECT_EQ(router.phitBufferDepth(0), 0u);
    EXPECT_EQ(deliveries.size(), 4u);
}

TEST_F(BypassTest, PhitBuffersAreIndependentPerInput)
{
    for (PortId in = 0; in < 4; ++in) {
        Flit f;
        f.conn = in;
        EXPECT_TRUE(router.offerControl(in, (in + 1) % 4, f));
    }
    EXPECT_EQ(router.phitBufferDepth(0), 1u);
    EXPECT_EQ(router.phitBufferDepth(3), 1u);
    kernel.run(6);
    EXPECT_EQ(deliveries.size(), 4u);
}

} // namespace
} // namespace mmr
