/**
 * @file
 * Tests for the --trace drain of the event ring: category mask
 * parsing, the thread-local activation protocol MMR_OBS_EVENT relies
 * on, the sink's cycle window and overflow behavior, and the Chrome
 * trace-event JSON shape Perfetto loads.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "base/types.hh"
#include "obs/flight_recorder.hh"

namespace mmr
{
namespace
{

/** A recorder with @p sink attached, active on this thread. */
struct TracedRecorder
{
    explicit TracedRecorder(TraceSink &sink, std::size_t capacity = 16)
        : rec(capacity)
    {
        rec.attachTrace(&sink);
        rec.activate();
    }
    FlightRecorder rec;
};

TEST(TraceCatMask, ParsesListsAndAll)
{
    const std::uint32_t all =
        (1u << static_cast<unsigned>(TraceCat::NumCats)) - 1;
    EXPECT_EQ(kAllTraceCats, all);
    EXPECT_EQ(traceCatMaskFromString(""), all);
    EXPECT_EQ(traceCatMaskFromString("all"), all);

    const std::uint32_t fs = traceCatMaskFromString("flit,sched");
    EXPECT_EQ(fs, (1u << static_cast<unsigned>(TraceCat::Flit)) |
                      (1u << static_cast<unsigned>(TraceCat::Sched)));

    EXPECT_EQ(traceCatMaskFromString("credit"),
              1u << static_cast<unsigned>(TraceCat::Credit));
    EXPECT_EQ(traceCatMaskFromString("fault"),
              1u << static_cast<unsigned>(TraceCat::Fault));
}

TEST(TraceCatMask, UnknownCategoryIsAUserError)
{
    // mmr_fatal: a typo in --trace-cats must fail loudly, not trace
    // nothing — and the message must list every real category.
    try {
        traceCatMaskFromString("flit,shced");
        FAIL() << "unknown category accepted";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        for (unsigned c = 0;
             c < static_cast<unsigned>(TraceCat::NumCats); ++c) {
            const char *name = to_string(static_cast<TraceCat>(c));
            EXPECT_NE(what.find(name), std::string::npos)
                << "error text omits '" << name << "': " << what;
        }
    }
}

TEST(Tracer, MacrosAreInertWithoutAnActiveTracer)
{
    ASSERT_EQ(FlightRecorder::active(), nullptr);
    EXPECT_FALSE(FlightRecorder::wantsCat(TraceCat::Flit));
    // The disabled fast path: these must be safe no-ops.
    MMR_OBS_EVENT(TraceCat::Flit, "inject", 1, 0, kInvalidConn);
    MMR_OBS_EVENT(TraceCat::Sched, "matching", 1, 0, kInvalidConn, 3,
                  -1, FlightRecorder::Phase::Counter);
    SUCCEED();
}

TEST(Tracer, ActivationScopesTheGlobalPointer)
{
    TraceSink sink;
    {
        TracedRecorder t(sink);
        EXPECT_EQ(FlightRecorder::active(), &t.rec);
        MMR_OBS_EVENT(TraceCat::Flit, "inject", 1, 0, kInvalidConn);
        // The destructor deactivates and hands the undrained tail
        // (here: the one staged event) to the sink.
    }
    EXPECT_EQ(FlightRecorder::active(), nullptr);
    EXPECT_EQ(sink.eventCount(), 1u);
}

TEST(Tracer, CategoryMaskGatesTheMacros)
{
    TraceSink sink;
    TracedRecorder t(sink);
    t.rec.setCategoryMask(traceCatMaskFromString("sched"));
    EXPECT_FALSE(FlightRecorder::wantsCat(TraceCat::Flit));
    EXPECT_TRUE(FlightRecorder::wantsCat(TraceCat::Sched));

    MMR_OBS_EVENT(TraceCat::Flit, "inject", 1, 0, kInvalidConn);
    EXPECT_EQ(t.rec.recorded(), 0u);
    MMR_OBS_EVENT(TraceCat::Sched, "grant", 1, 0, kInvalidConn);
    EXPECT_EQ(t.rec.recorded(), 1u);
    t.rec.detachTrace();
    EXPECT_EQ(sink.eventCount(), 1u);
}

TEST(Tracer, CycleRangeFiltersRecords)
{
    TraceSink sink(10, 20);
    TracedRecorder t(sink);
    t.rec.note(TraceCat::Flit, "early", 9, 0, kInvalidConn);
    t.rec.note(TraceCat::Flit, "in", 10, 0, kInvalidConn);
    t.rec.note(TraceCat::Flit, "in", 20, 0, kInvalidConn);
    t.rec.note(TraceCat::Flit, "late", 21, 0, kInvalidConn);
    t.rec.note(TraceCat::Sched, "c", 25, 0, kInvalidConn, 1, -1,
               FlightRecorder::Phase::Counter);
    t.rec.detachTrace();
    EXPECT_EQ(sink.eventCount(), 2u);
    EXPECT_EQ(sink.droppedEvents(), 0u)
        << "out-of-window events are filtered, not dropped";
}

TEST(Tracer, OverflowDropsAndCounts)
{
    TraceSink sink(0, std::numeric_limits<Cycle>::max(),
                   /*max_events=*/2);
    TracedRecorder t(sink);
    for (Cycle c = 0; c < 5; ++c)
        t.rec.note(TraceCat::Flit, "e", c, 0, kInvalidConn);
    t.rec.detachTrace();
    EXPECT_EQ(sink.eventCount(), 2u);
    EXPECT_EQ(sink.droppedEvents(), 3u);

    std::ostringstream os;
    sink.writeChromeJson(os);
    EXPECT_NE(os.str().find("\"dropped_events\": 3"), std::string::npos);
}

TEST(Tracer, SinkOutlastsManyRingWraps)
{
    // The ring holds 4 events; the sink must still see all 1001, in
    // order, whatever the parity of the attach point.
    for (const int before : {0, 1}) {
        FlightRecorder rec(4);
        for (int i = 0; i < before; ++i)
            rec.note(TraceCat::Flit, "pre", 0, 0, kInvalidConn);
        TraceSink sink;
        rec.attachTrace(&sink);
        for (int i = 0; i < 1001; ++i)
            rec.note(TraceCat::Sched, "grant", static_cast<Cycle>(i),
                     0, kInvalidConn, i);
        rec.detachTrace();
        ASSERT_EQ(sink.eventCount(), 1001u) << "before=" << before;

        std::ostringstream os;
        sink.writeChromeJson(os);
        const std::string s = os.str();
        EXPECT_EQ(s.find("\"pre\""), std::string::npos)
            << "events before attach leaked into the trace";
        std::size_t at = 0;
        for (int i = 0; i < 1001; ++i) {
            const std::string ts =
                "\"ts\": " + std::to_string(i) + ",";
            at = s.find(ts, at);
            ASSERT_NE(at, std::string::npos)
                << "event " << i << " missing or out of order";
        }
    }
}

TEST(Tracer, ChromeJsonShape)
{
    TraceSink sink;
    TracedRecorder t(sink);
    t.rec.note(TraceCat::Flit, "inject", 42, 3, 7, 5);
    t.rec.note(TraceCat::Setup, "probe", 50, 1, kInvalidConn);
    t.rec.note(TraceCat::Sched, "sched.matching_size", 60, 0,
               kInvalidConn, 2, -1, FlightRecorder::Phase::Counter);
    t.rec.detachTrace();

    std::ostringstream os;
    sink.writeChromeJson(os);
    const std::string s = os.str();

    EXPECT_NE(s.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
    // Instant event: ts = cycle, tid = lane, scoped to the thread,
    // conn + a0 in args.
    EXPECT_NE(s.find("{\"name\": \"inject\", \"cat\": \"flit\", "
                     "\"ph\": \"i\", \"ts\": 42, \"pid\": 0, "
                     "\"tid\": 3, \"s\": \"t\", "
                     "\"args\": {\"conn\": 7, \"a0\": 5}}"),
              std::string::npos)
        << s;
    // kInvalidConn and negative args are omitted entirely.
    EXPECT_NE(s.find("{\"name\": \"probe\", \"cat\": \"setup\", "
                     "\"ph\": \"i\", \"ts\": 50, \"pid\": 0, "
                     "\"tid\": 1, \"s\": \"t\", \"args\": {}}"),
              std::string::npos)
        << s;
    // Counter event renders as a graph track; a0 is its value.
    EXPECT_NE(s.find("{\"name\": \"sched.matching_size\", "
                     "\"cat\": \"sched\", \"ph\": \"C\", \"ts\": 60, "
                     "\"pid\": 0, \"tid\": 0, "
                     "\"args\": {\"value\": 2}}"),
              std::string::npos)
        << s;
}

TEST(Tracer, EmptyTraceIsStillValidJson)
{
    TraceSink sink;
    std::ostringstream os;
    sink.writeChromeJson(os);
    EXPECT_EQ(os.str(),
              "{\"displayTimeUnit\": \"ns\", \"otherData\": "
              "{\"dropped_events\": 0},\n\"traceEvents\": [\n]}\n");
}

TEST(TracerDeath, SecondActiveTracerIsABug)
{
    // The failed assert dumps the active recorder on its way out;
    // keep that dump out of the working directory.
    const std::string dump = testing::TempDir() + "mmr_second_active.json";
    FlightRecorder first;
    first.setDumpPath(dump);
    first.activate();
    FlightRecorder second;
    EXPECT_DEATH(second.activate(), "already active");
    std::remove(dump.c_str());
}

TEST(TracerDeath, InvertedCycleRangeIsABug)
{
    EXPECT_DEATH(TraceSink(20, 10), "inverted");
}

} // namespace
} // namespace mmr
