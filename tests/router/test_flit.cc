/**
 * @file
 * Edge cases of the 32-byte flit: the 32-bit ready-time offset at the
 * top of its range, and the harness-side VBR frame deadlines that
 * replaced the flit's deadline field, at whole-number and fractional
 * deadlines (one inside (0, 1)).
 */

#include <gtest/gtest.h>

#include "harness/single_router.hh"
#include "router/flit.hh"

namespace mmr
{
namespace
{

TEST(Flit, ReadyTimeHoldsTheTopOfItsRange)
{
    for (Cycle create : {Cycle{0}, Cycle{7}, Cycle{1} << 40}) {
        Flit f;
        f.createTime = create;
        f.setReadyTime(create);
        EXPECT_EQ(f.readyTime(), create);
        f.setReadyTime(create + Flit::kMaxReadyOffset - 1);
        EXPECT_EQ(f.readyTime(), create + Flit::kMaxReadyOffset - 1);
        f.setReadyTime(create + Flit::kMaxReadyOffset);
        EXPECT_EQ(f.readyTime(), create + Flit::kMaxReadyOffset);
        EXPECT_EQ(f.readyTime() - f.createTime, Cycle{0xffffffffu});
    }
}

TEST(FlitDeath, ReadyTimeOutsideItsWindowPanics)
{
    Flit f;
    f.createTime = 100;
    EXPECT_DEATH(f.setReadyTime(99), "outside the 32-bit window");
    EXPECT_DEATH(f.setReadyTime(100 + Flit::kMaxReadyOffset + 1),
                 "outside the 32-bit window");
}

TEST(Flit, FlagsAreIndependent)
{
    Flit f;
    EXPECT_FALSE(f.downPhase);
    EXPECT_FALSE(f.corrupted);
    f.downPhase = true;
    EXPECT_FALSE(f.corrupted);
    f.corrupted = true;
    f.downPhase = false;
    EXPECT_TRUE(f.corrupted);
    EXPECT_FALSE(f.downPhase);
}

Flit
vbrFlit(std::uint32_t seq, Cycle created)
{
    Flit f;
    f.conn = 1;
    f.klass = TrafficClass::VBR;
    f.seq = seq;
    f.createTime = created;
    f.setReadyTime(created);
    return f;
}

/** One flit under @p deadline created at @p created and leaving at
 * @p left: {misses, total} after it. */
std::pair<std::uint64_t, std::uint64_t>
oneFlit(double deadline, Cycle created, Cycle left)
{
    FrameDeadlineLedger ledger;
    ledger.noteInjected(0, deadline);
    ledger.noteDeparted(vbrFlit(0, created), left, true);
    return {ledger.misses(), ledger.total()};
}

TEST(FrameDeadlineLedger, WholeNumberDeadlineMissesOnlyAfterIt)
{
    using P = std::pair<std::uint64_t, std::uint64_t>;
    EXPECT_EQ(oneFlit(10.0, 4, 9), (P{0, 1}));
    EXPECT_EQ(oneFlit(10.0, 4, 10), (P{0, 1})); // on time
    EXPECT_EQ(oneFlit(10.0, 4, 11), (P{1, 1}));
    EXPECT_EQ(oneFlit(10.0, 10, 12), (P{1, 1})); // created on it
    EXPECT_EQ(oneFlit(10.0, 11, 12), (P{0, 0})); // created late
}

TEST(FrameDeadlineLedger, FractionalDeadlineIsNotRounded)
{
    using P = std::pair<std::uint64_t, std::uint64_t>;
    EXPECT_EQ(oneFlit(10.5, 4, 10), (P{0, 1}));
    EXPECT_EQ(oneFlit(10.5, 4, 11), (P{1, 1}));
    EXPECT_EQ(oneFlit(10.5, 10, 11), (P{1, 1}));
    EXPECT_EQ(oneFlit(10.5, 11, 11), (P{0, 0}));
    // Inside (0, 1): a real deadline, not the "no frame yet" zero.
    EXPECT_EQ(oneFlit(0.5, 0, 0), (P{0, 1}));
    EXPECT_EQ(oneFlit(0.5, 0, 1), (P{1, 1}));
    EXPECT_EQ(oneFlit(0.5, 1, 1), (P{0, 0}));
    // Zero: injected before the first frame began, never counted.
    EXPECT_EQ(oneFlit(0.0, 0, 5), (P{0, 0}));
}

TEST(FrameDeadlineLedger, OnlyMeasuredDeparturesCount)
{
    FrameDeadlineLedger ledger;
    ledger.noteInjected(0, 3.0);
    ledger.noteDeparted(vbrFlit(0, 0), 9, false);
    EXPECT_EQ(ledger.total(), 0u);
    ledger.noteInjected(1, 3.0);
    ledger.noteDeparted(vbrFlit(1, 0), 9, true);
    EXPECT_EQ(ledger.misses(), 1u);
    EXPECT_EQ(ledger.total(), 1u);
}

TEST(FrameDeadlineLedger, FramesInFlightKeepTheirOwnDeadlines)
{
    // Three frames in flight at once; flit 4 was refused by the
    // router, so its number never reaches the sink.
    FrameDeadlineLedger ledger;
    ledger.noteInjected(0, 5.25);
    ledger.noteInjected(1, 5.25);
    ledger.noteInjected(2, 9.0);
    ledger.noteInjected(3, 9.0);
    ledger.noteInjected(4, 12.5);
    ledger.noteInjected(5, 12.5);
    ledger.noteDeparted(vbrFlit(0, 1), 5, true);  // 5 <= 5.25
    ledger.noteDeparted(vbrFlit(1, 2), 6, true);  // miss
    ledger.noteDeparted(vbrFlit(2, 3), 9, true);  // on time
    ledger.noteDeparted(vbrFlit(3, 4), 10, true); // miss
    ledger.noteDeparted(vbrFlit(5, 6), 12, true); // 12 <= 12.5
    EXPECT_EQ(ledger.misses(), 2u);
    EXPECT_EQ(ledger.total(), 5u);
}

TEST(FrameDeadlineLedger, LongRunsStayExact)
{
    // 500 frames of three flits, two frames in flight at a time (the
    // ledger trims its dead prefix as it goes): of each frame the
    // first two flits leave by the deadline, the third just after it.
    constexpr std::uint32_t kFrames = 500;
    FrameDeadlineLedger ledger;
    const auto deadline = [](std::uint32_t frame) {
        return 10.0 * frame + 9.5;
    };
    const auto depart = [&](std::uint32_t frame) {
        for (std::uint32_t i = 0; i < 3; ++i)
            ledger.noteDeparted(vbrFlit(3 * frame + i, 10 * Cycle{frame}),
                                10 * Cycle{frame} + 8 + i, true);
    };
    for (std::uint32_t frame = 0; frame < kFrames; ++frame) {
        for (std::uint32_t i = 0; i < 3; ++i)
            ledger.noteInjected(3 * frame + i, deadline(frame));
        if (frame >= 1)
            depart(frame - 1);
    }
    depart(kFrames - 1);
    EXPECT_EQ(ledger.misses(), kFrames);
    EXPECT_EQ(ledger.total(), 3 * kFrames);
}

} // namespace
} // namespace mmr
