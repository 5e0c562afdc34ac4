#include "obs/flight_recorder.hh"

#include <algorithm>
#include <bit>
#include <fstream>
#include <iterator>
#include <ostream>

#include "base/logging.hh"

namespace mmr
{

namespace
{

/** mmr_panic hook: dump the panicking thread's own black box before
 * the abort (installed on the first activate()). */
void
panicDumpHook(const char *)
{
    FlightRecorder::dumpActive("panic");
}

/**
 * The one Chrome trace-event serializer, shared by the crash dump and
 * the trace: @p other writes the body of the "otherData" object and
 * @p at(i) yields event i of @p n, oldest first.
 */
template <class Other, class At>
void
writeChromeJson(std::ostream &os, Other other, std::uint64_t n, At at)
{
    os << "{\"displayTimeUnit\": \"ns\", \"otherData\": {";
    other();
    os << "},\n\"traceEvents\": [";
    for (std::uint64_t i = 0; i < n; ++i) {
        const FlightRecorder::Event &e = at(i);
        os << (i == 0 ? "\n" : ",\n");
        os << "{\"name\": \"" << e.name << "\", \"cat\": \""
           << to_string(e.cat) << "\", \"ph\": \""
           << (e.phase == FlightRecorder::Phase::Counter ? 'C' : 'i')
           << "\", \"ts\": " << e.cycle << ", \"pid\": 0, \"tid\": "
           << e.lane;
        if (e.phase == FlightRecorder::Phase::Counter) {
            os << ", \"args\": {\"value\": " << e.a0 << "}}";
            continue;
        }
        // kInvalidConn and negative args are absent, not printed.
        os << ", \"s\": \"t\", \"args\": {";
        const char *sep = "";
        if (e.conn != kInvalidConn) {
            os << "\"conn\": " << e.conn;
            sep = ", ";
        }
        if (e.a0 >= 0) {
            os << sep << "\"a0\": " << e.a0;
            sep = ", ";
        }
        if (e.a1 >= 0)
            os << sep << "\"a1\": " << e.a1;
        os << "}}";
    }
    os << "\n]}\n";
}

} // namespace

const char *
to_string(TraceCat c)
{
    static constexpr const char *kNames[] = {
        "flit", "sched", "admission", "credit", "setup", "control",
        "fault"};
    static_assert(std::size(kNames) ==
                  static_cast<std::size_t>(TraceCat::NumCats));
    const auto i = static_cast<std::size_t>(c);
    return i < std::size(kNames) ? kNames[i] : "?";
}

std::string
traceCatNames(const char *sep)
{
    std::string names = to_string(TraceCat{});
    for (unsigned c = 1; c < static_cast<unsigned>(TraceCat::NumCats);
         ++c)
        names += sep + std::string(to_string(static_cast<TraceCat>(c)));
    return names;
}

std::uint32_t
traceCatMaskFromString(const std::string &spec)
{
    if (spec.empty() || spec == "all")
        return kAllTraceCats;
    std::uint32_t mask = 0;
    std::size_t start = 0;
    while (start <= spec.size()) {
        const std::size_t comma = std::min(spec.find(',', start),
                                           spec.size());
        const std::string part = spec.substr(start, comma - start);
        start = comma + 1;
        if (part.empty())
            continue;
        const auto n = static_cast<unsigned>(TraceCat::NumCats);
        unsigned c = 0;
        while (c < n && part != to_string(static_cast<TraceCat>(c)))
            ++c;
        if (c == n)
            mmr_fatal("unknown trace category '", part, "' (want ",
                      traceCatNames("|"), "|all)");
        mask |= 1u << c;
    }
    return mask;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
{
    if (capacity < 2)
        capacity = 2;
    ring.resize(std::bit_ceil(capacity) / 2);
    mask = ring.size() * 2 - 1;
}

FlightRecorder::~FlightRecorder()
{
    detachTrace();
    deactivate();
}

void
FlightRecorder::activate()
{
    mmr_assert(current == nullptr || current == this,
               "another flight recorder is already active "
               "on this thread");
    current = this;
    log::setPanicHook(&panicDumpHook);
}

void
FlightRecorder::deactivate()
{
    if (current == this)
        current = nullptr;
}

std::size_t
FlightRecorder::stored() const
{
    return head < capacity() ? static_cast<std::size_t>(head)
                             : capacity();
}

const FlightRecorder::Event &
FlightRecorder::oldest() const
{
    mmr_assert(head > 0, "flight recorder is empty");
    const std::uint64_t first =
        head <= capacity() ? 0 : head - capacity();
    return eventAt(first);
}

void
FlightRecorder::attachTrace(TraceSink *s)
{
    mmr_assert(sink == nullptr, "a trace sink is already attached");
    sink = s;
    drained = head;
    // Once the line-aligned start plus capacity() events are
    // committed, the next line commit would overwrite event `drained`.
    drainAt = (head & ~std::uint64_t{1}) + capacity();
}

void
FlightRecorder::detachTrace()
{
    if (sink == nullptr)
        return;
    drainTrace(head);
    sink = nullptr;
    drainAt = kNoDrain;
}

void
FlightRecorder::drainTrace(std::uint64_t end)
{
    for (std::uint64_t i = drained; i < end; ++i)
        sink->offer(eventAt(i));
    drained = end;
    drainAt = end + capacity();
}

void
FlightRecorder::writeChromeJson(std::ostream &os,
                                const char *reason) const
{
    const std::uint64_t kept = stored();
    const std::uint64_t first = head - kept;
    mmr::writeChromeJson(
        os,
        [&] {
            os << "\"reason\": \"" << (reason ? reason : "unknown")
               << "\", \"recorded\": " << head
               << ", \"retained\": " << kept;
        },
        kept, [&](std::uint64_t i) -> const Event & {
            return eventAt(first + i);
        });
}

bool
FlightRecorder::dumpTo(const std::string &path,
                       const char *reason) const
{
    std::ofstream os(path);
    if (!os) {
        mmr_warn("flight recorder: cannot write '", path, "'");
        return false;
    }
    writeChromeJson(os, reason);
    return os.good();
}

bool
FlightRecorder::dumpActive(const char *reason)
{
    FlightRecorder *fr = current;
    if (fr == nullptr)
        return false;
    return fr->dumpTo(fr->dumpFile, reason);
}

TraceSink::TraceSink(Cycle from, Cycle to, std::size_t max_events)
    : fromCycle(from), toCycle(to), maxEvents(max_events)
{
    mmr_assert(from <= to, "trace cycle range is inverted");
    mmr_assert(maxEvents >= 1, "trace sink needs room for events");
}

void
TraceSink::offer(const FlightRecorder::Event &e)
{
    if (e.cycle < fromCycle || e.cycle > toCycle)
        return;
    if (events.size() >= maxEvents) {
        ++dropped;
        return;
    }
    // mmr-lint: allow(hot-path-alloc) trace-only: a sink exists only
    // under --trace, is drained once per ring's worth of events, and
    // grows amortized up to maxEvents.
    events.push_back(e);
}

void
TraceSink::writeChromeJson(std::ostream &os) const
{
    mmr::writeChromeJson(
        os, [&] { os << "\"dropped_events\": " << dropped; },
        events.size(),
        [&](std::uint64_t i) -> const FlightRecorder::Event & {
            return events[static_cast<std::size_t>(i)];
        });
}

} // namespace mmr
