/**
 * @file
 * Serial-vs-sharded equivalence: the shard-parallel network core must
 * produce a bit-identical networkResultDigest to the serial path for
 * every topology generator, shard count, and fault schedule — the
 * determinism contract of DESIGN.md §12.  The digests cover every
 * counter, FP accumulation, and latency-histogram percentile of the
 * run, so any reordering of credit returns, corrupt-hook RNG draws or
 * end-to-end deliveries across the shard boundary shows up here.
 *
 * The fault sweep's seed count scales with MMR_SHARD_PROP_SEEDS
 * (default 20, the ISSUE-mandated sweep width).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "harness/network_experiment.hh"
#include "sim/invariant.hh"

namespace mmr
{
namespace
{

unsigned
seedCount()
{
    if (const char *env = std::getenv("MMR_SHARD_PROP_SEEDS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    return 20;
}

/** The four generator families the digest contract is tested over. */
const char *const kGenerators[] = {
    "mesh:3x3",          // regular
    "irregular:10:4:4",  // random bounded-degree cluster
    "min:2:3",           // multistage interconnection network
    "fattree:4",         // three-tier fat-tree
};

const unsigned kShardCounts[] = {2, 3, 8};

NetworkExperimentConfig
baseConfig(const char *topo, std::uint64_t seed)
{
    NetworkExperimentConfig c;
    c.topologySpec = topo;
    c.seed = seed;
    c.net.router.vcsPerPort = 32;
    c.net.router.candidates = 8;
    c.cbrStreamsPerHost = 1;
    c.cbrRateBps = 10 * kMbps;
    c.beFlowsPerHost = 1;
    c.beRateBps = 2 * kMbps;
    c.warmupCycles = 800;
    c.measureCycles = 2000;
    c.drainCycles = 1000;
    c.invariantPeriod = 8;
    return c;
}

std::uint64_t
digestAtShards(NetworkExperimentConfig cfg, unsigned shards)
{
    cfg.net.shards = shards;
    return networkResultDigest(runNetworkExperiment(cfg));
}

class InvariantGuard
{
  public:
    InvariantGuard() { invariant::setEnabled(true); }
    ~InvariantGuard() { invariant::clearOverride(); }
};

TEST(ShardedNetwork, CleanRunDigestMatchesSerialOnEveryGenerator)
{
    InvariantGuard guard;
    for (const char *topo : kGenerators) {
        SCOPED_TRACE(topo);
        const auto cfg = baseConfig(topo, 12345);
        const std::uint64_t serial = digestAtShards(cfg, 1);
        for (unsigned shards : kShardCounts) {
            SCOPED_TRACE("shards " + std::to_string(shards));
            EXPECT_EQ(serial, digestAtShards(cfg, shards))
                << "sharded run diverged from the serial digest";
        }
    }
}

TEST(ShardedNetwork, LeafSpineAndShardsBeyondNodesStaySerialEquivalent)
{
    InvariantGuard guard;
    // leaf-spine exercises the star-like extreme (every leaf's
    // traffic crosses a shard boundary), and shards > nodes exercises
    // the clamp.
    const auto cfg = baseConfig("leafspine:3:6", 777);
    const std::uint64_t serial = digestAtShards(cfg, 1);
    EXPECT_EQ(serial, digestAtShards(cfg, 4));
    EXPECT_EQ(serial, digestAtShards(cfg, 64));
}

TEST(ShardedNetwork, FaultSweepDigestMatchesSerial)
{
    InvariantGuard guard;
    const unsigned seeds = seedCount();
    for (unsigned s = 0; s < seeds; ++s) {
        SCOPED_TRACE("seed index " + std::to_string(s));
        auto cfg = baseConfig(kGenerators[s % 4],
                              42 + 7919ULL * (s + 1));
        cfg.faults.linkFailPer10k = 1.0;
        cfg.faults.meanRepairCycles = 1500;
        cfg.faults.probeDropRate = 0.02;
        cfg.faults.corruptRate = 2e-4;
        const unsigned shards = kShardCounts[s % 3];
        SCOPED_TRACE("shards " + std::to_string(shards));
        EXPECT_EQ(digestAtShards(cfg, 1), digestAtShards(cfg, shards))
            << "FaultPlan replay diverged between serial and sharded";
    }
}

TEST(ShardedNetwork, ExplicitFaultEventsReplayIdentically)
{
    InvariantGuard guard;
    auto cfg = baseConfig("mesh:3x3", 999);
    cfg.faultEvents = "down@900:0-1;up@1800:0-1;down@2200:4-5";
    const std::uint64_t serial = digestAtShards(cfg, 1);
    for (unsigned shards : kShardCounts)
        EXPECT_EQ(serial, digestAtShards(cfg, shards));
}

TEST(ShardedNetwork, InvariantChecksRunMatchSerial)
{
    InvariantGuard guard;
    // The router audit runs as one shard phase; every shard count
    // must run exactly the checks the serial audit runs.
    auto cfg = baseConfig("min:2:3", 4242);
    cfg.faults.linkFailPer10k = 1.0;
    cfg.faults.meanRepairCycles = 1500;
    cfg.net.shards = 1;
    const std::uint64_t serial =
        runNetworkExperiment(cfg).invariantChecks;
    ASSERT_GT(serial, 0u);
    for (unsigned shards : kShardCounts) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        cfg.net.shards = shards;
        EXPECT_EQ(runNetworkExperiment(cfg).invariantChecks, serial);
    }
}

/**
 * Seed the same vc-legality violation (a free VC carrying an output
 * mapping) in routers 70 and 192 of a 256-router MIN and run one
 * sweep.  At 2 shards they sit in shards 0 and 1; at 4 shards in
 * shards 1 and 3, where router 192 is its shard's first router and so
 * is found first in wall time.  The panic must name router 70 either
 * way.
 */
void
auditTwoSeededViolations(unsigned shards)
{
    NetworkConfig ncfg;
    ncfg.shards = shards;
    ncfg.router.vcsPerPort = 8;
    Network net(topologyFromSpec("min:4:4", 1), ncfg);
    mmr_assert(net.numNodes() == 256 && net.shards() == shards,
               "unexpected network shape");
    for (const NodeId n : {NodeId{70}, NodeId{192}})
        net.routerAt(n).inputMemory(1).vc(5).setMapping(2, 3);
    InvariantChecker chk;
    net.registerInvariants(chk, 16);
    chk.advance(16); // a sweep cycle
}

TEST(ShardedNetworkDeath, AuditPanicNamesTheLowestViolatingRouter)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (unsigned shards : {2u, 4u}) {
        for (int run = 0; run < 5; ++run) {
            SCOPED_TRACE("shards " + std::to_string(shards) + " run " +
                         std::to_string(run));
            EXPECT_DEATH(auditTwoSeededViolations(shards),
                         "invariant 'vc-legality' violated: router 70: ");
        }
    }
}

TEST(ShardedNetwork, ShardPartitionIsContiguousAndBalanced)
{
    NetworkConfig ncfg;
    ncfg.shards = 3;
    Network net(Topology::mesh2d(4, 4), ncfg);
    ASSERT_EQ(net.shards(), 3u);
    unsigned last = 0;
    std::vector<unsigned> sizes(3, 0);
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        const unsigned s = net.shardOfNode(n);
        EXPECT_GE(s, last) << "partition must be contiguous in id";
        last = s;
        ++sizes[s];
    }
    for (unsigned s = 0; s < 3; ++s)
        EXPECT_NEAR(static_cast<double>(sizes[s]), 16.0 / 3.0, 1.0);
}

} // namespace
} // namespace mmr
