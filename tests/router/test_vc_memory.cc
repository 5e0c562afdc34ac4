/**
 * @file
 * Unit tests for the virtual channel memory (§3.2): the functional
 * buffer pool and the interleaved-bank timing model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <set>

#include "base/rng.hh"
#include "router/vc_memory.hh"

namespace mmr
{
namespace
{

Flit
makeFlit(std::uint32_t seq)
{
    Flit f;
    f.seq = seq;
    return f;
}

TEST(VcMemory, DepositAndDrainTrackOccupancy)
{
    VcMemory mem(8, 4);
    mem.vc(2).bindBestEffort(1);
    EXPECT_TRUE(mem.deposit(2, makeFlit(0)));
    EXPECT_TRUE(mem.deposit(2, makeFlit(1)));
    EXPECT_EQ(mem.occupancy(), 2u);
    EXPECT_EQ(mem.freeSlots(2), 2u);
    EXPECT_TRUE(mem.flitsAvailable().test(2));

    mem.vc(2).pop();
    mem.noteDrained(2);
    EXPECT_EQ(mem.occupancy(), 1u);
    EXPECT_TRUE(mem.flitsAvailable().test(2));
    mem.vc(2).pop();
    mem.noteDrained(2);
    EXPECT_FALSE(mem.flitsAvailable().test(2));
    EXPECT_EQ(mem.occupancy(), 0u);
}

TEST(VcMemory, OverflowRejectedAndCounted)
{
    VcMemory mem(2, 2);
    mem.vc(0).bindBestEffort(1);
    EXPECT_TRUE(mem.deposit(0, makeFlit(0)));
    EXPECT_TRUE(mem.deposit(0, makeFlit(1)));
    EXPECT_FALSE(mem.deposit(0, makeFlit(2)));
    EXPECT_EQ(mem.overflowCount(), 1u);
    EXPECT_EQ(mem.occupancy(), 2u);
    EXPECT_EQ(mem.freeSlots(0), 0u);
}

TEST(VcMemory, FlitsAvailableTracksManyVcs)
{
    VcMemory mem(64, 4);
    for (VcId v : {VcId{0}, VcId{13}, VcId{63}}) {
        mem.vc(v).bindBestEffort(v + 1);
        mem.deposit(v, makeFlit(v));
    }
    EXPECT_EQ(mem.flitsAvailable().setBits(),
              (std::vector<std::size_t>{0, 13, 63}));
}

TEST(VcMemoryDeath, OutOfRangePanics)
{
    VcMemory mem(4, 4);
    EXPECT_DEATH(mem.vc(4), "out of range");
    EXPECT_DEATH(mem.noteDrained(0), "zero occupancy");
}

/**
 * Model-based differential test: seeded random sequences of the
 * operations the router performs on its VC memory, checked after
 * every step against one std::deque<Flit> per VC.
 */
class VcMemoryModelRun
{
  public:
    VcMemoryModelRun(unsigned vcs, unsigned depth, std::uint64_t seed)
        : mem(vcs, depth), depthLimit(depth), model(vcs), rng(seed)
    {
    }

    void
    step()
    {
        const auto v = static_cast<VcId>(rng.below(model.size()));
        VcModel &m = model[v];
        VcState &vc = mem.vc(v);
        // Alternate fill-heavy and drain-heavy stretches so every VC
        // both reaches its depth limit and empties out to be released.
        const bool filling = (now / 500) % 2 == 0;
        const std::uint64_t r = rng.below(8);
        int op = 3; // pop
        if (r == 0)
            op = 0;
        else if (r < (filling ? 5u : 2u))
            op = 1;
        else if (r < (filling ? 6u : 5u))
            op = 2;
        switch (op) {
          case 0: // bind, or release a drained VC
            if (!m.bound) {
                vc.bindBestEffort(v + 1);
                m.bound = true;
            } else if (m.flits.empty() && m.pending == 0) {
                vc.release();
                m.bound = false;
            }
            break;
          case 1: // deposit
            if (m.bound) {
                Flit f;
                f.conn = v + 1;
                f.seq = nextSeq++;
                f.setReadyTime(now);
                const bool fits = m.flits.size() < depthLimit;
                ASSERT_EQ(mem.deposit(v, f), fits);
                if (fits)
                    m.flits.push_back(f);
                else
                    ++overflows;
            }
            break;
          case 2: // grant the next ungranted flit
            if (m.flits.size() > m.pending) {
                vc.noteGrantIssued(now);
                mem.markSchedDirty(v);
                ++m.pending;
            }
            break;
          case 3: // apply the oldest grant: pop the head
            if (m.pending > 0) {
                const Flit f = vc.pop();
                mem.noteDrained(v);
                vc.noteGrantApplied();
                ASSERT_EQ(f.seq, m.flits.front().seq);
                ASSERT_EQ(f.readyTime(), m.flits.front().readyTime());
                m.flits.pop_front();
                --m.pending;
            }
            break;
        }
        ++now;
    }

    void
    check() const
    {
        std::size_t total = 0;
        for (VcId v = 0; v < model.size(); ++v) {
            const VcModel &m = model[v];
            const VcState &vc = mem.vc(v);
            total += m.flits.size();
            ASSERT_EQ(vc.bound(), m.bound) << "VC " << v;
            ASSERT_EQ(vc.depth(), m.flits.size()) << "VC " << v;
            ASSERT_EQ(vc.empty(), m.flits.empty()) << "VC " << v;
            ASSERT_EQ(vc.pendingGrants(), m.pending) << "VC " << v;
            ASSERT_EQ(mem.freeSlots(v), depthLimit - m.flits.size());
            ASSERT_EQ(mem.flitsAvailable().test(v), !m.flits.empty());
            ASSERT_EQ(vc.hasUngrantedFlit(), m.flits.size() > m.pending);
            if (!m.flits.empty()) {
                ASSERT_EQ(vc.head().seq, m.flits.front().seq);
            }
            if (vc.hasUngrantedFlit()) {
                const Flit &h = vc.ungrantedHead();
                ASSERT_EQ(h.seq, m.flits[m.pending].seq);
                ASSERT_EQ(h.conn, m.flits[m.pending].conn);
            }
        }
        ASSERT_EQ(mem.occupancy(), total);
        ASSERT_EQ(mem.overflowCount(), overflows);
        invariant::enforce(mem.auditOccupancy());
        invariant::enforce(mem.auditLegality());
    }

  private:
    struct VcModel
    {
        bool bound = false;
        std::deque<Flit> flits;
        unsigned pending = 0;
    };

    VcMemory mem;
    unsigned depthLimit;
    std::vector<VcModel> model;
    Rng rng;
    std::uint32_t nextSeq = 0;
    std::uint64_t overflows = 0;
    Cycle now = 0;
};

TEST(VcMemoryDifferential, MatchesDequeModel)
{
    std::uint64_t seed = 1;
    for (unsigned vcs : {1u, 3u, 16u}) {
        for (unsigned depth : {1u, 3u, 4u, 5u, 64u}) {
            SCOPED_TRACE(::testing::Message()
                         << vcs << " VCs, depth " << depth);
            VcMemoryModelRun run(vcs, depth, seed++);
            for (int i = 0; i < 4000; ++i) {
                run.step();
                run.check();
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

/**
 * The same model run on slot-major ports of 1, 8 and 256 VCs, where
 * ring slot s of VC v sits next to slot s of VCs v-1 and v+1: a stride
 * or offset slip makes neighbouring VCs overwrite each other's flits,
 * which the per-VC deques catch at the next pop or head check.
 */
TEST(VcMemoryDifferential, SlotMajorPortsMatchDequeModel)
{
    std::uint64_t seed = 100;
    for (unsigned vcs : {1u, 8u, 256u}) {
        for (unsigned depth : {1u, 4u, 5u, 64u}) {
            SCOPED_TRACE(::testing::Message()
                         << vcs << " VCs, depth " << depth);
            VcMemoryModelRun run(vcs, depth, seed++);
            // Enough steps that every VC fills and drains repeatedly.
            const unsigned steps = 4000 + 60 * vcs;
            for (unsigned i = 0; i < steps; ++i) {
                run.step();
                run.check();
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

/**
 * Host-independent residency bound: when every VC of a port holds at
 * most k flits, the slots in use are the first k rows of the
 * slot-major RAM, so they span at most ceil(k * vcs * sizeof(Flit) /
 * 4096) + 1 distinct 4 KiB pages (the +1 for a block that does not
 * start on a page boundary).  Each VC first cycles 1 to 5 flits
 * through its ring, so only the restart at slot 0 keeps the bound.
 */
TEST(VcMemoryResidency, LightlyLoadedVcsShareTheirPages)
{
    constexpr std::uintptr_t kPage = 4096;
    for (unsigned vcs : {8u, 64u, 256u}) {
        for (unsigned k : {1u, 2u, 4u}) {
            SCOPED_TRACE(::testing::Message() << vcs << " VCs, k " << k);
            VcMemory mem(vcs, 64);
            std::uint32_t seq = 0;
            for (VcId v = 0; v < vcs; ++v) {
                mem.vc(v).bindBestEffort(v + 1);
                const unsigned cycled = 1 + v % 5;
                for (unsigned i = 0; i < cycled; ++i)
                    ASSERT_TRUE(mem.deposit(v, makeFlit(seq++)));
                for (unsigned i = 0; i < cycled; ++i) {
                    mem.vc(v).pop();
                    mem.noteDrained(v);
                }
                for (unsigned i = 0; i < k; ++i)
                    ASSERT_TRUE(mem.deposit(v, makeFlit(seq++)));
            }
            std::set<std::uintptr_t> pages;
            for (VcId v = 0; v < vcs; ++v) {
                while (!mem.vc(v).empty()) {
                    const auto addr = reinterpret_cast<std::uintptr_t>(
                        &mem.vc(v).head());
                    pages.insert(addr / kPage);
                    pages.insert((addr + sizeof(Flit) - 1) / kPage);
                    mem.vc(v).pop();
                    mem.noteDrained(v);
                }
            }
            const std::size_t bound =
                (k * vcs * sizeof(Flit) + kPage - 1) / kPage + 1;
            EXPECT_LE(pages.size(), bound);
        }
    }
}

TEST(VcMemoryModel, WordsPerFlitRoundsUp)
{
    VcMemoryModel m;
    m.wordBits = 32;
    EXPECT_EQ(m.wordsPerFlit(128), 4u);
    EXPECT_EQ(m.wordsPerFlit(129), 5u);
    EXPECT_EQ(m.wordsPerFlit(32), 1u);
}

TEST(VcMemoryModel, MoreBanksMoreBandwidth)
{
    double prev = 0.0;
    for (unsigned banks : {1u, 2u, 4u, 8u}) {
        VcMemoryModel m{banks, 32, 6.0, 1};
        const double rate = m.sustainableRateBps(128);
        EXPECT_GE(rate, prev);
        prev = rate;
    }
}

TEST(VcMemoryModel, DualPortDoublesBandwidth)
{
    VcMemoryModel single{4, 32, 6.0, 1};
    VcMemoryModel dual{4, 32, 6.0, 2};
    EXPECT_NEAR(dual.sustainableRateBps(128),
                2.0 * single.sustainableRateBps(128), 1.0);
}

TEST(VcMemoryModel, MinBanksIsTight)
{
    // The returned bank count sustains the link; one fewer does not.
    const double link = 1.24 * kGbps;
    const unsigned banks =
        VcMemoryModel::minBanksFor(link, 128, 32, 6.0);
    VcMemoryModel ok{banks, 32, 6.0, 1};
    EXPECT_TRUE(ok.matchesLink(128, link));
    if (banks > 1) {
        VcMemoryModel tight{banks - 1, 32, 6.0, 1};
        EXPECT_FALSE(tight.matchesLink(128, link));
    }
}

TEST(VcMemoryModel, PaperDesignPointIsFeasible)
{
    // §3.2: banks and flit size are chosen to balance memory access
    // time against a 1.24 Gb/s link.  A modest SRAM (6 ns) with a
    // 32-bit datapath needs only a handful of interleaved banks.
    const unsigned banks =
        VcMemoryModel::minBanksFor(1.24 * kGbps, 128, 32, 6.0);
    EXPECT_LE(banks, 8u);
}

TEST(VcMemoryModel, FlitAccessScalesWithFlitSize)
{
    VcMemoryModel m{4, 32, 5.0, 1};
    EXPECT_DOUBLE_EQ(m.flitAccessNs(128), 5.0);  // 4 words, 1 group
    EXPECT_DOUBLE_EQ(m.flitAccessNs(256), 10.0); // 8 words, 2 groups
    EXPECT_DOUBLE_EQ(m.flitAccessNs(64), 5.0);   // 2 words, 1 group
}

} // namespace
} // namespace mmr
