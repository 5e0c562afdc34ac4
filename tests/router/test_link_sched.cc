/**
 * @file
 * Unit tests for the per-input-link scheduler (§4.1, §4.3): candidate
 * eligibility, per-round quota enforcement, service tiering and
 * per-output candidate de-duplication; and a differential test of the
 * cached eligibility mask and the lazy round roll against a naive
 * from-scratch reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "base/rng.hh"
#include "router/link_sched.hh"

namespace mmr
{
namespace
{

class LinkSchedTest : public ::testing::Test
{
  protected:
    LinkSchedTest()
        : mem(16, 8), credits(4, 16, 2),
          sched(0, &mem, 4, PriorityPolicy::Biased, 32)
    {
        credits.setInfinite(true);
    }

    /** Bind a CBR VC with mapping and one queued flit. */
    void
    cbr(VcId v, PortId out, unsigned alloc, double ia, Cycle ready = 0)
    {
        mem.vc(v).bindCbr(100 + v, alloc, ia);
        mem.vc(v).setMapping(out, v);
        Flit f;
        f.setReadyTime(ready);
        ASSERT_TRUE(mem.deposit(v, f));
    }

    std::vector<Candidate>
    collect(Cycle now, unsigned max_c)
    {
        std::vector<Candidate> out;
        sched.collectCandidates(now, max_c, credits, out);
        return out;
    }

    VcMemory mem;
    CreditManager credits;
    LinkScheduler sched;
};

TEST_F(LinkSchedTest, NoFlitsNoCandidates)
{
    EXPECT_TRUE(collect(0, 8).empty());
}

TEST_F(LinkSchedTest, SingleReadyVcIsOffered)
{
    cbr(3, 2, 4, 50.0);
    const auto c = collect(10, 8);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0].in, 0u);
    EXPECT_EQ(c[0].vc, 3u);
    EXPECT_EQ(c[0].out, 2u);
    EXPECT_EQ(c[0].outVc, 3u);
    EXPECT_EQ(c[0].conn, 103u);
    EXPECT_EQ(c[0].tier, static_cast<int>(ServiceTier::Guaranteed));
}

TEST_F(LinkSchedTest, UnmappedOrUnboundVcsAreSkipped)
{
    // A bound but unmapped VC never becomes a candidate.
    mem.vc(1).bindCbr(50, 4, 10.0);
    Flit f;
    ASSERT_TRUE(mem.deposit(1, f));
    EXPECT_TRUE(collect(0, 8).empty());
}

TEST_F(LinkSchedTest, CreditExhaustionMasksChannel)
{
    credits.setInfinite(false);
    cbr(0, 1, 4, 50.0);
    // Drain the credits of the mapped output VC (1, 0).
    credits.consume(1, 0);
    credits.consume(1, 0);
    EXPECT_TRUE(collect(0, 8).empty());
    credits.replenish(1, 0);
    EXPECT_EQ(collect(1, 8).size(), 1u);
}

TEST_F(LinkSchedTest, PerOutputDeduplicationKeepsBest)
{
    // Two VCs bound for output 2; the older (higher-ratio) flit must
    // be the single candidate representing that output.
    cbr(0, 2, 4, 50.0, 20);
    cbr(1, 2, 4, 50.0, 0); // ready earlier -> higher biased priority
    const auto c = collect(30, 8);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0].vc, 1u);
}

TEST_F(LinkSchedTest, DistinctOutputsAllOffered)
{
    cbr(0, 0, 4, 50.0);
    cbr(1, 1, 4, 50.0);
    cbr(2, 2, 4, 50.0);
    cbr(3, 3, 4, 50.0);
    const auto c = collect(5, 8);
    EXPECT_EQ(c.size(), 4u);
}

TEST_F(LinkSchedTest, MaxCandidatesHonored)
{
    cbr(0, 0, 4, 50.0);
    cbr(1, 1, 4, 50.0);
    cbr(2, 2, 4, 50.0);
    cbr(3, 3, 4, 50.0);
    EXPECT_EQ(collect(5, 2).size(), 2u);
    EXPECT_EQ(collect(5, 1).size(), 1u);
}

TEST_F(LinkSchedTest, CandidatesSortedByPriorityWithinTier)
{
    cbr(0, 0, 4, 100.0, 0); // ratio at t=50: 0.5
    cbr(1, 1, 4, 25.0, 0);  // ratio at t=50: 2.0
    const auto c = collect(50, 8);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[0].vc, 1u) << "higher biased ratio first";
    EXPECT_GT(c[0].prio, c[1].prio);
}

TEST_F(LinkSchedTest, CbrQuotaEnforcedWithinRound)
{
    // Allocation of 2 cycles/round: after two grants the VC must
    // disappear from the candidate set until the round rolls.
    mem.vc(0).bindCbr(7, 2, 10.0);
    mem.vc(0).setMapping(1, 0);
    for (int i = 0; i < 4; ++i) {
        Flit f;
        ASSERT_TRUE(mem.deposit(0, f));
    }
    EXPECT_EQ(collect(0, 8).size(), 1u);
    mem.vc(0).noteServiced();
    mem.markSchedDirty(0); // direct mutation: flag for the mask cache
    EXPECT_EQ(collect(1, 8).size(), 1u);
    mem.vc(0).noteServiced();
    mem.markSchedDirty(0);
    EXPECT_TRUE(collect(2, 8).empty()) << "allocation exhausted";
    // Round length is 32: at cycle 32 the quota resets.
    EXPECT_EQ(collect(32, 8).size(), 1u);
    EXPECT_EQ(sched.roundCount(), 1u);
}

TEST_F(LinkSchedTest, PendingGrantsCountAgainstQuotaAndQueue)
{
    cbr(0, 1, 1, 10.0);
    mem.vc(0).noteGrantIssued();
    mem.markSchedDirty(0); // direct mutation: flag for the mask cache
    EXPECT_TRUE(collect(0, 8).empty())
        << "the only flit is already granted";
}

TEST_F(LinkSchedTest, ControlOutranksStreams)
{
    cbr(0, 1, 4, 10.0, 0);
    mem.vc(5).bindControl(900);
    mem.vc(5).setMapping(2, 5);
    Flit f;
    ASSERT_TRUE(mem.deposit(5, f));
    const auto c = collect(100, 8);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[0].tier, static_cast<int>(ServiceTier::Control));
    EXPECT_EQ(c[0].vc, 5u);
}

TEST_F(LinkSchedTest, BestEffortRanksLast)
{
    mem.vc(4).bindBestEffort(800);
    mem.vc(4).setMapping(3, 4);
    Flit f;
    f.setReadyTime(0);
    ASSERT_TRUE(mem.deposit(4, f));
    cbr(0, 1, 4, 10.0, 90);
    const auto c = collect(100, 8);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[1].tier, static_cast<int>(ServiceTier::BestEffort));
    EXPECT_EQ(c[1].vc, 4u)
        << "a long-waiting BE flit still ranks below guaranteed";
}

TEST_F(LinkSchedTest, VbrExcessServicedInPriorityOrderByConnection)
{
    // Two VBR channels past their permanent bandwidth: the one with
    // the higher user priority must come first, and the ordering key
    // must be stable (connection-based), not aging-based.
    auto add_vbr = [&](VcId v, PortId out, int prio, ConnId conn) {
        mem.vc(v).bindVbr(conn, 0, 8, 10.0, prio);
        mem.vc(v).setMapping(out, v);
        Flit f;
        f.setReadyTime(0);
        ASSERT_TRUE(mem.deposit(v, f));
    };
    add_vbr(0, 0, 1, 500);
    add_vbr(1, 1, 3, 501);
    const auto c = collect(50, 8);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[0].conn, 501u) << "priority 3 beats priority 1";
    EXPECT_EQ(c[0].tier, static_cast<int>(ServiceTier::VbrExcess));
}

TEST_F(LinkSchedTest, EligibleMaskMatchesCandidates)
{
    cbr(0, 0, 4, 50.0);
    cbr(2, 1, 4, 50.0);
    mem.vc(5).bindCbr(77, 0, 10.0); // zero allocation: never eligible
    mem.vc(5).setMapping(2, 5);
    Flit f;
    ASSERT_TRUE(mem.deposit(5, f));

    const BitVector mask = sched.eligibleMask(0, credits);
    EXPECT_EQ(mask.setBits(), (std::vector<std::size_t>{0, 2}));
}

TEST_F(LinkSchedTest, RoundRolloverCatchesUpAfterGaps)
{
    cbr(0, 0, 1, 10.0);
    mem.vc(0).noteServiced();
    EXPECT_TRUE(collect(1, 8).empty());
    // Jump several rounds ahead: rollRoundIfNeeded must catch up.
    EXPECT_EQ(collect(100, 8).size(), 1u);
    EXPECT_EQ(sched.roundCount(), 3u); // rounds at 32, 64, 96
}

/**
 * Naive reference collect: the §4.1 status-vector AND evaluated per
 * VC from scratch, with the round quota read from the model's own
 * per-VC service counters (@p serviced, reset at every boundary)
 * rather than the scheduler's lazily rolled ones, then the same
 * per-output dedup and rank.
 */
std::vector<Candidate>
naiveCollect(const VcMemory &mem, const CreditManager &credits,
             const std::vector<unsigned> &serviced, Cycle now,
             unsigned num_outputs, unsigned max_candidates)
{
    const auto by_rank = [](const Candidate &a, const Candidate &b) {
        if (a.tier != b.tier)
            return a.tier > b.tier;
        if (a.prio != b.prio)
            return a.prio > b.prio;
        return a.tie > b.tie;
    };
    std::vector<Candidate> best(num_outputs);
    std::vector<bool> taken(num_outputs, false);
    for (VcId v = 0; v < mem.numVcs(); ++v) {
        const VcState &vc = mem.vc(v);
        if (!vc.bound() || !vc.mapped() ||
            vc.depth() <= vc.pendingGrants() ||
            credits.credits(vc.outPort(), vc.outVc()) == 0)
            continue;
        const unsigned quota = vc.quotaThisRound();
        const unsigned used = serviced[v] + vc.pendingGrants();
        if (quota != ~0u && used >= quota)
            continue;
        Candidate c;
        c.in = 0;
        c.vc = v;
        c.out = vc.outPort();
        c.outVc = vc.outVc();
        c.conn = vc.conn();
        ServiceTier tier = ServiceTier::BestEffort;
        if (vc.trafficClass() == TrafficClass::Control)
            tier = ServiceTier::Control;
        else if (vc.trafficClass() == TrafficClass::CBR)
            tier = ServiceTier::Guaranteed;
        else if (vc.trafficClass() == TrafficClass::VBR)
            tier = used < vc.permCycles() ? ServiceTier::VbrPermanent
                                          : ServiceTier::VbrExcess;
        c.tier = static_cast<int>(tier);
        c.prio = tier == ServiceTier::VbrExcess
                     ? vc.userPriority() * 1e6 -
                           static_cast<double>(vc.conn())
                     : headPriority(PriorityPolicy::Biased, vc, now);
        c.tie = vc.tieBreak();
        if (!taken[c.out] || by_rank(c, best[c.out]))
            best[c.out] = c;
        taken[c.out] = true;
    }
    std::vector<Candidate> out;
    for (unsigned o = 0; o < num_outputs; ++o)
        if (taken[o])
            out.push_back(best[o]);
    std::sort(out.begin(), out.end(), by_rank);
    if (out.size() > max_candidates)
        out.resize(max_candidates);
    return out;
}

/**
 * Seeded deposit / grant / drain / credit / rebind sequences across
 * many round boundaries.  Like the router, the sequence skips the
 * collect on random cycles while the port holds no flit, so dirty
 * bits, credit-version changes and round boundaries accumulate over
 * the skipped cycles.  After every collect the cached mask must
 * equal eligibleMask(), the lazily rolled service counters the
 * model's, and the candidates the naive collect's.
 */
TEST(LinkSchedDifferential, MatchesNaiveCollectAcrossSkippedCycles)
{
    constexpr unsigned kOutputs = 4;
    constexpr unsigned kVcs = 24;
    constexpr unsigned kRound = 16;
    constexpr unsigned kCandidates = 3;
    constexpr unsigned kOutVcs = 4; ///< few credit counters: they move
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        VcMemory mem(kVcs, 4);
        CreditManager credits(kOutputs, kVcs, 2);
        LinkScheduler sched(0, &mem, kOutputs, PriorityPolicy::Biased,
                            kRound);
        std::vector<unsigned> serviced(kVcs, 0);
        // Distinct tie-breaks make the rank a total order, so any
        // correct sort selects and orders the same candidates.
        std::vector<double> ties(kVcs);
        std::iota(ties.begin(), ties.end(), 1.0);
        rng.shuffle(ties);

        const auto bind = [&](VcId v) {
            VcState &vc = mem.vc(v);
            const ConnId conn = 1000 + static_cast<ConnId>(rng.below(
                                           1000));
            switch (rng.below(4)) {
              case 0:
                vc.bindCbr(conn, static_cast<unsigned>(rng.below(4)),
                           10.0);
                break;
              case 1: {
                const auto perm = static_cast<unsigned>(rng.below(3));
                vc.bindVbr(conn, perm,
                           perm + static_cast<unsigned>(rng.below(3)),
                           10.0, static_cast<int>(rng.below(4)));
                break;
              }
              case 2:
                vc.bindBestEffort(conn);
                break;
              default:
                vc.bindControl(conn);
                break;
            }
            if (rng.chance(0.9))
                vc.setMapping(static_cast<PortId>(rng.below(kOutputs)),
                              static_cast<VcId>(rng.below(kOutVcs)));
            vc.setTieBreak(ties[v]);
            mem.markSchedDirty(v);
        };
        for (VcId v = 0; v < kVcs; ++v)
            if (rng.chance(0.7))
                bind(v);

        std::vector<VcId> granted, applying;
        unsigned collects = 0, skips = 0;
        for (Cycle now = 0; now < 3000; ++now) {
            if (now > 0 && now % kRound == 0)
                std::fill(serviced.begin(), serviced.end(), 0u);

            // Arrivals: deposits, credit returns and consumption,
            // renegotiation, and teardown/rebind of idle VCs.  Bursts
            // alternate with idle stretches in which no flit arrives,
            // credits only return and stuck VCs get a mapping and a
            // quota, so the port drains and the skips happen.
            const bool burst = (now / 40) % 3 != 2;
            for (int k = 0; burst && k < 2; ++k) {
                const auto v = static_cast<VcId>(rng.below(kVcs));
                if (mem.vc(v).bound() && mem.freeSlots(v) > 0 &&
                    rng.chance(0.4)) {
                    Flit f;
                    f.setReadyTime(now);
                    ASSERT_TRUE(mem.deposit(v, f));
                }
            }
            for (int k = 0; k < 2; ++k) {
                const auto o = static_cast<PortId>(rng.below(kOutputs));
                const auto ov = static_cast<VcId>(rng.below(kOutVcs));
                if (burst && rng.chance(0.5) && credits.credits(o, ov) > 0)
                    credits.consume(o, ov);
                else if (credits.credits(o, ov) < 2)
                    credits.replenish(o, ov);
            }
            if (!burst) {
                const auto v = static_cast<VcId>(rng.below(kVcs));
                VcState &vc = mem.vc(v);
                if (vc.bound() && !vc.mapped())
                    vc.setMapping(static_cast<PortId>(rng.below(kOutputs)),
                                  0);
                if (vc.trafficClass() == TrafficClass::CBR &&
                    vc.allocCycles() == 0)
                    vc.setCbrAlloc(2);
                if (vc.trafficClass() == TrafficClass::VBR &&
                    vc.peakCycles() == 0)
                    vc.setVbrAlloc(0, 2);
                mem.markSchedDirty(v);
            }
            if (rng.chance(0.05)) {
                const auto v = static_cast<VcId>(rng.below(kVcs));
                VcState &vc = mem.vc(v);
                if (vc.bound() && vc.empty() && vc.pendingGrants() == 0) {
                    vc.release();
                    serviced[v] = 0;
                    mem.markSchedDirty(v);
                    if (rng.chance(0.8))
                        bind(v);
                } else if (vc.trafficClass() == TrafficClass::CBR) {
                    vc.setCbrAlloc(static_cast<unsigned>(rng.below(4)));
                    mem.markSchedDirty(v);
                }
            }

            // Evaluate: the router skips an empty port's collect.
            granted.clear();
            if (mem.occupancy() == 0 && rng.chance(0.7)) {
                ++skips;
            } else {
                ++collects;
                std::vector<Candidate> got;
                sched.collectCandidates(now, kCandidates, credits, got);
                ASSERT_EQ(sched.cachedEligibleMask(),
                          sched.eligibleMask(now, credits))
                    << "seed " << seed << " cycle " << now;
                for (VcId v = 0; v < kVcs; ++v)
                    ASSERT_EQ(mem.vc(v).serviced(), serviced[v])
                        << "seed " << seed << " cycle " << now << " vc "
                        << v;
                const std::vector<Candidate> want = naiveCollect(
                    mem, credits, serviced, now, kOutputs, kCandidates);
                ASSERT_EQ(got.size(), want.size())
                    << "seed " << seed << " cycle " << now;
                for (std::size_t i = 0; i < got.size(); ++i) {
                    EXPECT_EQ(got[i].vc, want[i].vc);
                    EXPECT_EQ(got[i].out, want[i].out);
                    EXPECT_EQ(got[i].outVc, want[i].outVc);
                    EXPECT_EQ(got[i].conn, want[i].conn);
                    EXPECT_EQ(got[i].tier, want[i].tier);
                    EXPECT_EQ(got[i].prio, want[i].prio);
                    EXPECT_EQ(got[i].tie, want[i].tie);
                }
                for (const Candidate &c : got) {
                    if (rng.chance(0.6)) {
                        mem.vc(c.vc).noteGrantIssued(now);
                        mem.markSchedDirty(c.vc);
                        granted.push_back(c.vc);
                    }
                }
            }

            // Advance: last cycle's grants drain and count as service.
            for (VcId v : applying) {
                VcState &vc = mem.vc(v);
                (void)vc.pop();
                vc.noteGrantApplied();
                vc.noteServiced();
                mem.noteDrained(v);
                ++serviced[v];
            }
            applying.swap(granted);
        }
        EXPECT_GT(collects, 500u) << "seed " << seed;
        EXPECT_GT(skips, 100u) << "seed " << seed;
        EXPECT_GT(sched.roundCount(), 100u) << "seed " << seed;
    }
}

} // namespace
} // namespace mmr
