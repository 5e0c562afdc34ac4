/**
 * @file
 * End-to-end property tests: for every scheduler kind and candidate
 * count, a loaded router must conserve flits, keep per-connection
 * order, respect CBR round quotas, and carry the offered load below
 * saturation.  These are the invariants behind the §5 study.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "harness/single_router.hh"

namespace mmr
{
namespace
{

using Param = std::tuple<SchedulerKind, unsigned>; // scheduler, candidates

class SchedulerProperty : public ::testing::TestWithParam<Param>
{
};

TEST_P(SchedulerProperty, CarriesModerateLoadWithFiniteDelay)
{
    const auto [kind, candidates] = GetParam();
    ExperimentConfig cfg;
    cfg.router.numPorts = 4;
    cfg.router.vcsPerPort = 32;
    cfg.router.candidates = candidates;
    cfg.router.scheduler = kind;
    cfg.offeredLoad = 0.5;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 10000;
    cfg.seed = 11;

    const ExperimentResult r = runSingleRouter(cfg);
    EXPECT_GT(r.connections, 0u);
    EXPECT_NEAR(r.achievedLoad, 0.5, 0.05);
    EXPECT_EQ(r.injectionRejects, 0u)
        << "no buffer overflow below saturation";
    EXPECT_GT(r.flitsDelivered, 0u);
    // Utilization tracks carried load in steady state.
    EXPECT_NEAR(r.utilization, r.achievedLoad, 0.06);
    EXPECT_GT(r.meanDelayCycles, 0.0);
    EXPECT_LT(r.meanDelayCycles, 5000.0);
    EXPECT_GE(r.meanJitterCycles, 0.0);
}

TEST_P(SchedulerProperty, DeterministicForFixedSeed)
{
    const auto [kind, candidates] = GetParam();
    ExperimentConfig cfg;
    cfg.router.numPorts = 4;
    cfg.router.vcsPerPort = 32;
    cfg.router.candidates = candidates;
    cfg.router.scheduler = kind;
    cfg.offeredLoad = 0.4;
    cfg.warmupCycles = 500;
    cfg.measureCycles = 3000;
    cfg.seed = 21;

    const ExperimentResult a = runSingleRouter(cfg);
    const ExperimentResult b = runSingleRouter(cfg);
    EXPECT_EQ(a.connections, b.connections);
    EXPECT_EQ(a.flitsDelivered, b.flitsDelivered);
    EXPECT_DOUBLE_EQ(a.meanDelayCycles, b.meanDelayCycles);
    EXPECT_DOUBLE_EQ(a.meanJitterCycles, b.meanJitterCycles);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndCandidates, SchedulerProperty,
    ::testing::Combine(
        ::testing::Values(SchedulerKind::BiasedPriority,
                          SchedulerKind::FixedPriority,
                          SchedulerKind::AgePriority,
                          SchedulerKind::OutputDriven,
                          SchedulerKind::Autonet, SchedulerKind::Islip,
                          SchedulerKind::Perfect),
        ::testing::Values(1u, 2u, 4u)),
    [](const ::testing::TestParamInfo<Param> &pinfo) {
        std::string name = to_string(std::get<0>(pinfo.param)) + "_c" +
                           std::to_string(std::get<1>(pinfo.param));
        for (char &c : name)
            if (c == '-')
                c = '_'; // gtest test names reject hyphens
        return name;
    });

/** The §4.3 guarantee: a CBR connection never exceeds its per-round
 * allocation, even when its source misbehaves (floods). */
TEST(CbrQuotaProperty, MisbehavingSourceIsThrottled)
{
    RouterConfig rc;
    rc.numPorts = 2;
    rc.vcsPerPort = 8;
    rc.vcBufferFlits = 64;
    rc.roundFactorK = 4; // round = 32 cycles
    rc.candidates = 4;

    MetricsRecorder metrics;
    MmrRouter router(rc, &metrics);
    std::vector<Cycle> departures;
    router.setSink([&](PortId, VcId, const Flit &, Cycle t) {
        departures.push_back(t);
    });

    // Reserve ~4 cycles/round but flood every cycle.
    const unsigned round = rc.cyclesPerRound();
    const double rate = 4.0 / round * rc.linkRateBps;
    const ConnId id = router.openCbr(0, 1, rate);
    ASSERT_NE(id, kInvalidConn);
    const unsigned alloc = router.connection(id)->allocCycles;

    Kernel kernel;
    kernel.add(&router);
    for (Cycle t = 0; t < 10 * round; ++t) {
        Flit f;
        f.setReadyTime(t);
        router.inject(id, f); // may be rejected when full: flooding
        kernel.step();
    }

    // Count departures per round: never above the allocation.
    std::map<Cycle, unsigned> per_round;
    for (Cycle t : departures)
        per_round[t / round]++;
    ASSERT_FALSE(per_round.empty());
    for (const auto &[round_idx, n] : per_round)
        EXPECT_LE(n, alloc) << "round " << round_idx
                            << " exceeded the reservation";
}

/** Work conservation: with a single backlogged connection and no
 * competing traffic, the link never idles below the quota. */
TEST(CbrQuotaProperty, AllocationIsAlsoDeliveredWhenBacklogged)
{
    RouterConfig rc;
    rc.numPorts = 2;
    rc.vcsPerPort = 8;
    rc.vcBufferFlits = 64;
    rc.roundFactorK = 4;
    rc.candidates = 4;

    MmrRouter router(rc);
    std::vector<Cycle> departures;
    router.setSink([&](PortId, VcId, const Flit &, Cycle t) {
        departures.push_back(t);
    });

    const unsigned round = rc.cyclesPerRound();
    const double rate = 8.0 / round * rc.linkRateBps;
    const ConnId id = router.openCbr(0, 1, rate);
    const unsigned alloc = router.connection(id)->allocCycles;

    Kernel kernel;
    kernel.add(&router);
    for (Cycle t = 0; t < 8 * round; ++t) {
        Flit f;
        f.setReadyTime(t);
        router.inject(id, f);
        kernel.step();
    }
    std::map<Cycle, unsigned> per_round;
    for (Cycle t : departures)
        per_round[t / round]++;
    // Interior rounds deliver exactly the allocation.
    for (unsigned r = 1; r + 1 < 8; ++r)
        EXPECT_EQ(per_round[r], alloc) << "round " << r;
}

} // namespace
} // namespace mmr
