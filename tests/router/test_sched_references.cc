/**
 * @file
 * Naive references for the switch-scheduling fast paths.
 *
 *  - GreedyPriorityScheduler: its walk over pre-sorted per-input lists,
 *    tier by tier, against a plain tiered augmenting-path matcher
 *    written from the §4.3/§4.4 description (one global sort), on
 *    seeded random candidate sets.
 *  - IslipScheduler: request masks and findFirstWrap round-robin
 *    scans against an N x N request matrix walked one pointer step at
 *    a time, over sequences of calls so the pointers carry state.
 *  - OutputDrivenScheduler: grant/accept masks cleared word-wide
 *    against pointer tables re-nulled every iteration.
 *  - LinkScheduler's cached eligibility mask, refreshed word-parallel
 *    from the memory's dirty set, against a per-VC loop that applies
 *    the §4.1 conditions from scratch, on ports wider than one word.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "router/link_sched.hh"
#include "router/switch_sched.hh"

namespace mmr
{
namespace
{

bool
ranksAbove(const Candidate &a, const Candidate &b)
{
    if (a.tier != b.tier)
        return a.tier > b.tier;
    if (a.prio != b.prio)
        return a.prio > b.prio;
    return a.tie > b.tie;
}

/**
 * Tier by tier from the top: inputs try, in the order of their best
 * candidate, to claim an output along an augmenting path that may
 * re-route earlier inputs of the same tier; ports won by a higher
 * tier (or busy in @p masks) are out of reach.
 */
Matching
naiveGreedyMatching(const std::vector<std::vector<Candidate>> &per_input,
                    const PortMasks &masks, unsigned ports)
{
    std::vector<Candidate> all;
    for (const auto &list : per_input)
        all.insert(all.end(), list.begin(), list.end());
    std::stable_sort(all.begin(), all.end(), ranksAbove);
    std::vector<bool> in_taken(ports), out_taken(ports);
    for (unsigned p = 0; p < ports; ++p) {
        in_taken[p] = masks.busyIn.test(p);
        out_taken[p] = masks.busyOut.test(p);
    }
    Matching out;
    for (std::size_t b = 0, e = 0; b < all.size(); b = e) {
        while (e < all.size() && all[e].tier == all[b].tier)
            ++e;
        std::vector<std::vector<Candidate>> req(ports);
        for (std::size_t i = b; i < e; ++i)
            if (!in_taken[all[i].in] && !out_taken[all[i].out])
                req[all[i].in].push_back(all[i]);
        std::vector<int> holder(ports, -1);
        std::vector<const Candidate *> choice(ports, nullptr);
        std::vector<bool> tried(ports), visited;
        std::function<bool(unsigned)> augment = [&](unsigned in) {
            for (const Candidate &c : req[in]) {
                if (visited[c.out])
                    continue;
                visited[c.out] = true;
                if (holder[c.out] < 0 ||
                    augment(static_cast<unsigned>(holder[c.out]))) {
                    holder[c.out] = static_cast<int>(in);
                    choice[in] = &c;
                    return true;
                }
            }
            return false;
        };
        for (std::size_t i = b; i < e; ++i) {
            const unsigned in = all[i].in;
            if (in_taken[in] || tried[in])
                continue;
            tried[in] = true;
            visited.assign(ports, false);
            augment(in);
        }
        for (unsigned in = 0; in < ports; ++in) {
            if (choice[in] != nullptr) {
                out.push_back(*choice[in]);
                in_taken[in] = true;
                out_taken[choice[in]->out] = true;
            }
        }
    }
    return out;
}

TEST(SchedReference, GreedyPriorityMatchesNaiveMatcher)
{
    unsigned grants = 0;
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        Rng rng(seed);
        const auto ports = static_cast<unsigned>(2 + rng.below(7));
        // Distinct tie-breaks make the rank a total order, as the
        // link scheduler's per-VC ties do.
        std::vector<double> ties(ports * 6);
        std::iota(ties.begin(), ties.end(), 1.0);
        rng.shuffle(ties);
        std::size_t next_tie = 0;
        std::vector<std::vector<Candidate>> per_input(ports);
        for (unsigned in = 0; in < ports; ++in) {
            const auto n = rng.below(6);
            for (std::uint64_t k = 0; k < n; ++k) {
                Candidate c;
                c.in = static_cast<PortId>(in);
                c.vc = static_cast<VcId>(k);
                c.out = static_cast<PortId>(rng.below(ports));
                c.outVc = static_cast<VcId>(rng.below(4));
                c.conn = static_cast<ConnId>(100 * in + k);
                c.tier = static_cast<int>(rng.below(4));
                c.prio = static_cast<double>(rng.below(3));
                c.tie = ties[next_tie++];
                per_input[in].push_back(c);
            }
        }
        // Each list in rank order, as the link scheduler emits it and
        // the greedy scheduler requires.
        for (auto &list : per_input)
            std::sort(list.begin(), list.end(), ranksAbove);
        PortMasks masks(ports);
        for (unsigned p = 0; p < ports; ++p) {
            if (rng.chance(0.1))
                masks.busyIn.set(p);
            if (rng.chance(0.1))
                masks.busyOut.set(p);
        }

        GreedyPriorityScheduler sched(ports);
        Matching got;
        sched.scheduleInto(per_input, masks, rng, got);
        const Matching want = naiveGreedyMatching(per_input, masks, ports);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].in, want[i].in) << "seed " << seed;
            EXPECT_EQ(got[i].vc, want[i].vc) << "seed " << seed;
            EXPECT_EQ(got[i].out, want[i].out) << "seed " << seed;
            EXPECT_EQ(got[i].outVc, want[i].outVc) << "seed " << seed;
        }
        grants += static_cast<unsigned>(got.size());
    }
    EXPECT_GT(grants, 800u) << "candidate sets too sparse to compare";
}

/** Seeded random candidate lists: up to five per input, distinct ties,
 * ports busy with probability 0.1. */
std::vector<std::vector<Candidate>>
randomCandidates(Rng &rng, unsigned ports, PortMasks &masks)
{
    std::vector<std::vector<Candidate>> per_input(ports);
    for (unsigned in = 0; in < ports; ++in) {
        const auto n = rng.below(6);
        for (std::uint64_t k = 0; k < n; ++k) {
            Candidate c;
            c.in = static_cast<PortId>(in);
            c.vc = static_cast<VcId>(k);
            c.out = static_cast<PortId>(rng.below(ports));
            c.outVc = static_cast<VcId>(rng.below(4));
            c.tier = static_cast<int>(rng.below(3));
            c.prio = static_cast<double>(rng.below(3));
            c.tie = static_cast<double>(in * 8 + k);
            per_input[in].push_back(c);
        }
    }
    for (unsigned p = 0; p < ports; ++p) {
        masks.busyIn.clear(p);
        masks.busyOut.clear(p);
        if (rng.chance(0.1))
            masks.busyIn.set(p);
        if (rng.chance(0.1))
            masks.busyOut.set(p);
    }
    return per_input;
}

void
expectSameMatching(const Matching &got, const Matching &want,
                   const std::string &where)
{
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].in, want[i].in) << where;
        EXPECT_EQ(got[i].vc, want[i].vc) << where;
        EXPECT_EQ(got[i].out, want[i].out) << where;
        EXPECT_EQ(got[i].outVc, want[i].outVc) << where;
    }
}

/**
 * iSLIP as written: three request/grant/accept iterations over an
 * N x N request matrix (the best candidate per pair by tier, then
 * priority, the first kept on a tie); each free output grants the
 * first requesting input at or after its pointer, each free input
 * accepts the first granting output at or after its pointer, and
 * only first-iteration accepts move the pointers.
 */
struct NaiveIslip
{
    explicit NaiveIslip(unsigned n) : ports(n), grantPtr(n), acceptPtr(n)
    {
    }

    Matching
    schedule(const std::vector<std::vector<Candidate>> &per_input,
             const PortMasks &masks)
    {
        std::vector<bool> in_used(ports), out_used(ports);
        for (unsigned p = 0; p < ports; ++p) {
            in_used[p] = masks.busyIn.test(p);
            out_used[p] = masks.busyOut.test(p);
        }
        Matching out;
        for (int it = 0; it < 3; ++it) {
            std::vector<const Candidate *> req(ports * ports, nullptr);
            for (const auto &list : per_input) {
                for (const Candidate &c : list) {
                    if (in_used[c.in] || out_used[c.out])
                        continue;
                    const Candidate *&r = req[c.out * ports + c.in];
                    if (r == nullptr || c.tier > r->tier ||
                        (c.tier == r->tier && c.prio > r->prio))
                        r = &c;
                }
            }
            std::vector<const Candidate *> grant(ports, nullptr);
            for (unsigned o = 0; o < ports; ++o) {
                for (unsigned k = 0; k < ports && !out_used[o]; ++k) {
                    const unsigned in = (grantPtr[o] + k) % ports;
                    if (req[o * ports + in] != nullptr) {
                        grant[o] = req[o * ports + in];
                        break;
                    }
                }
            }
            for (unsigned in = 0; in < ports; ++in) {
                for (unsigned k = 0; k < ports && !in_used[in]; ++k) {
                    const unsigned o = (acceptPtr[in] + k) % ports;
                    const Candidate *g = grant[o];
                    if (g == nullptr || g->in != in)
                        continue;
                    in_used[in] = out_used[o] = true;
                    out.push_back(*g);
                    if (it == 0) {
                        grantPtr[o] = (in + 1) % ports;
                        acceptPtr[in] = (o + 1) % ports;
                    }
                }
            }
        }
        return out;
    }

    unsigned ports;
    std::vector<unsigned> grantPtr;
    std::vector<unsigned> acceptPtr;
};

TEST(SchedReference, IslipMatchesNaiveRoundRobin)
{
    unsigned grants = 0, wide = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        Rng rng(seed);
        // Some switches wider than one mask word, so the wrap crosses
        // word boundaries.
        const auto ports = static_cast<unsigned>(
            seed % 6 == 0 ? 65 + rng.below(70) : 2 + rng.below(8));
        wide += ports > 64 ? 1 : 0;
        IslipScheduler sched(ports);
        NaiveIslip naive(ports);
        PortMasks masks(ports);
        // A sequence of calls: the pointers carry over.
        for (int call = 0; call < 40; ++call) {
            const auto per_input = randomCandidates(rng, ports, masks);
            Matching got;
            sched.scheduleInto(per_input, masks, rng, got);
            expectSameMatching(got, naive.schedule(per_input, masks),
                               "seed " + std::to_string(seed) + " call " +
                                   std::to_string(call));
            grants += static_cast<unsigned>(got.size());
        }
    }
    EXPECT_EQ(wide, 10u);
    EXPECT_GT(grants, 4000u) << "candidate sets too sparse to compare";
}

/**
 * Output-driven matching as written: up to three iterations in which
 * every free output grants its best eligible request (tier, priority,
 * tie; the first kept on a tie), every input accepts its best grant
 * (outputs visited ascending), and accepts commit in input order;
 * an iteration without an accept ends the matching.
 */
Matching
naiveOutputDriven(const std::vector<std::vector<Candidate>> &per_input,
                  const PortMasks &masks, unsigned ports)
{
    std::vector<bool> in_used(ports), out_used(ports);
    for (unsigned p = 0; p < ports; ++p) {
        in_used[p] = masks.busyIn.test(p);
        out_used[p] = masks.busyOut.test(p);
    }
    Matching out;
    for (int it = 0; it < 3; ++it) {
        std::vector<const Candidate *> grant(ports, nullptr);
        for (const auto &list : per_input)
            for (const Candidate &c : list)
                if (!in_used[c.in] && !out_used[c.out] &&
                    (grant[c.out] == nullptr ||
                     ranksAbove(c, *grant[c.out])))
                    grant[c.out] = &c;
        std::vector<const Candidate *> accept(ports, nullptr);
        for (unsigned o = 0; o < ports; ++o) {
            const Candidate *g = grant[o];
            if (g != nullptr &&
                (accept[g->in] == nullptr || ranksAbove(*g, *accept[g->in])))
                accept[g->in] = g;
        }
        bool progress = false;
        for (unsigned in = 0; in < ports; ++in) {
            if (accept[in] == nullptr)
                continue;
            in_used[in] = out_used[accept[in]->out] = true;
            out.push_back(*accept[in]);
            progress = true;
        }
        if (!progress)
            break;
    }
    return out;
}

TEST(SchedReference, OutputDrivenMatchesNaiveGrantAccept)
{
    unsigned grants = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        Rng rng(seed);
        const auto ports = static_cast<unsigned>(
            seed % 6 == 0 ? 65 + rng.below(70) : 2 + rng.below(8));
        // One scheduler across calls, so a mask left set by an earlier
        // call (or iteration) would show.
        OutputDrivenScheduler sched(ports);
        PortMasks masks(ports);
        for (int call = 0; call < 40; ++call) {
            const auto per_input = randomCandidates(rng, ports, masks);
            Matching got;
            sched.scheduleInto(per_input, masks, rng, got);
            expectSameMatching(got,
                               naiveOutputDriven(per_input, masks, ports),
                               "seed " + std::to_string(seed) + " call " +
                                   std::to_string(call));
            grants += static_cast<unsigned>(got.size());
        }
    }
    EXPECT_GT(grants, 4000u) << "candidate sets too sparse to compare";
}

/** §4.1: a VC may compete when it is bound and mapped, holds a flit
 * no grant covers yet, has a downstream credit, and (CBR, VBR) has
 * quota left this round. */
BitVector
naiveEligibleMask(const VcMemory &mem, const CreditManager &credits)
{
    BitVector mask(mem.numVcs());
    for (VcId v = 0; v < mem.numVcs(); ++v) {
        const VcState &vc = mem.vc(v);
        if (!vc.bound() || !vc.mapped() ||
            vc.depth() <= vc.pendingGrants() ||
            credits.credits(vc.outPort(), vc.outVc()) == 0)
            continue;
        unsigned quota = ~0u;
        if (vc.trafficClass() == TrafficClass::CBR)
            quota = vc.allocCycles();
        else if (vc.trafficClass() == TrafficClass::VBR)
            quota = vc.peakCycles();
        if (quota == ~0u || vc.serviced() + vc.pendingGrants() < quota)
            mask.set(v);
    }
    return mask;
}

TEST(SchedReference, WordParallelEligibilityMatchesNaiveMask)
{
    constexpr unsigned kOutputs = 4;
    constexpr unsigned kOutVcs = 3;
    constexpr unsigned kVcs = 150; ///< three words, the last partial
    std::uint64_t incremental = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        VcMemory mem(kVcs, 4);
        CreditManager credits(kOutputs, kOutVcs, 2);
        LinkScheduler sched(0, &mem, kOutputs, PriorityPolicy::Biased, 32);
        const auto rebind = [&](VcId v) {
            VcState &vc = mem.vc(v);
            if (vc.bound())
                vc.release();
            const auto conn = static_cast<ConnId>(v + 1);
            switch (rng.below(3)) {
              case 0:
                vc.bindCbr(conn, static_cast<unsigned>(rng.below(4)), 8.0);
                break;
              case 1:
                vc.bindVbr(conn, 0, static_cast<unsigned>(rng.below(4)),
                           8.0, 0);
                break;
              default:
                vc.bindBestEffort(conn);
                break;
            }
            if (rng.chance(0.9))
                vc.setMapping(static_cast<PortId>(rng.below(kOutputs)),
                              static_cast<VcId>(rng.below(kOutVcs)));
            mem.markSchedDirty(v);
        };
        for (VcId v = 0; v < kVcs; ++v)
            rebind(v);

        std::vector<Candidate> got;
        std::vector<VcId> granted;
        for (Cycle now = 0; now < 2000; ++now) {
            // Last cycle's grants drain: pop, count the service.
            for (VcId v : granted) {
                VcState &vc = mem.vc(v);
                vc.pop();
                mem.noteDrained(v);
                vc.noteGrantApplied();
                vc.noteServiced();
            }
            granted.clear();
            for (int k = 0; k < 4; ++k) {
                const auto v = static_cast<VcId>(rng.below(kVcs));
                if (mem.freeSlots(v) > 0) {
                    Flit f;
                    f.setReadyTime(now);
                    mem.deposit(v, f);
                }
            }
            if (rng.chance(0.02)) {
                const auto v = static_cast<VcId>(rng.below(kVcs));
                if (mem.vc(v).empty() && mem.vc(v).pendingGrants() == 0)
                    rebind(v);
            }
            // Rare credit moves: most refreshes stay incremental.
            if (rng.chance(0.1)) {
                const auto o = static_cast<PortId>(rng.below(kOutputs));
                const auto ov = static_cast<VcId>(rng.below(kOutVcs));
                if (credits.credits(o, ov) > 0 && rng.chance(0.5))
                    credits.consume(o, ov);
                else if (credits.credits(o, ov) < 2)
                    credits.replenish(o, ov);
            }

            got.clear();
            sched.collectCandidates(now, kOutputs, credits, got);
            ASSERT_EQ(sched.cachedEligibleMask(),
                      naiveEligibleMask(mem, credits))
                << "seed " << seed << " cycle " << now;
            for (const Candidate &c : got) {
                if (rng.chance(0.7)) {
                    mem.vc(c.vc).noteGrantIssued(now);
                    mem.markSchedDirty(c.vc);
                    granted.push_back(c.vc);
                }
            }
        }
        incremental += sched.maskIncrementalRefreshes();
    }
    EXPECT_GT(incremental, 4000u) << "the word-parallel path barely ran";
}

} // namespace
} // namespace mmr
