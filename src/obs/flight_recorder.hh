/**
 * @file
 * The simulator's one event pipeline: an always-on ring of the most
 * recent scheduler / flit / credit / setup / fault events with two
 * drains.
 *
 * - The crash dump: on mmr_panic (so also mmr_invariant_violated and
 *   mmr_assert, via the log::setPanicHook hook installed on first
 *   activate()), on RecoveryManager abandonment, and on
 *   --flight-recorder-dump=PATH, the retained window is written as a
 *   Chrome trace-event snapshot, so a post-mortem starts from the
 *   events leading up to the failure, in Perfetto, with no re-run.
 * - The trace: --trace attaches a TraceSink that copies committed ring
 *   lines out before the ring overwrites them, keeps the
 *   --trace-from/--trace-to window up to an event cap, and is written
 *   at the end of the run.
 *
 * Constraints, in order: (1) the push is legal under MMR_HOT_PATH —
 * the ring is preallocated and each site costs one pointer-and-mask
 * test; (2) the crash dump works from a panic handler, touching only
 * the ring and an output stream; (3) recorders are thread-local, so
 * parallel sweep workers each keep their own.  Timestamps are flit
 * cycles and the "tid" lane is the port (or node) an event concerns;
 * same-seed runs produce bit-identical output.
 */

#ifndef MMR_OBS_FLIGHT_RECORDER_HH
#define MMR_OBS_FLIGHT_RECORDER_HH

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "base/types.hh"

namespace mmr
{

/** Event categories, each independently switchable. */
enum class TraceCat : std::uint8_t
{
    Flit,      ///< inject / VC alloc / switch transmit
    Sched,     ///< switch-scheduler grants and matching size
    Admission, ///< bandwidth admission accept/reject
    Credit,    ///< credit consume/replenish (high volume)
    Setup,     ///< probe/EPB connection establishment phases
    Control,   ///< VCT cut-throughs, control-word application
    Fault,     ///< link fail/repair, corruption, recovery retries
    NumCats
};

constexpr std::uint32_t kAllTraceCats =
    (1u << static_cast<unsigned>(TraceCat::NumCats)) - 1;

const char *to_string(TraceCat c);

/** Every category name joined by @p sep ("flit|sched|...|fault"). */
std::string traceCatNames(const char *sep);

/** Parse "flit,sched,admission" style lists ("" or "all" = every
 * category); an unknown name is a user error (mmr_fatal). */
std::uint32_t traceCatMaskFromString(const std::string &spec);

class TraceSink;

class FlightRecorder
{
  public:
    /** Chrome trace-event phase of a record. */
    enum class Phase : std::uint8_t
    {
        Instant, ///< a point event; a0/a1 are small integer args
        Counter, ///< a counter-track sample; a0 is the value
    };

    /** One recorded event, packed to 32 bytes: the ring is written
     * ~20 times per simulated cycle, so its footprint competes with
     * the VC arrays for L2 (a lane is a port or node, below 2^16). */
    struct alignas(32) Event
    {
        Cycle cycle;
        const char *name; ///< static string, not copied
        ConnId conn;
        std::int32_t a0;
        std::int32_t a1;
        std::uint16_t lane;
        TraceCat cat;
        Phase phase;
    };
    static_assert(sizeof(Event) == 32,
                  "flight-recorder events must stay cache-compact");

    /** One cache line of events: the ring's storage granule, and the
     * staging buffer note() fills before committing a whole line. */
    struct alignas(64) EventPair
    {
        Event e[2];
    };

    /** 2048 events (~64KB) span the last ~100 cycles of an 8-port run
     * while leaving L2 to the simulator proper. */
    static constexpr std::size_t kDefaultCapacity = 1u << 11;

    /** @param capacity ring depth; rounded up to a power of two. */
    explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** The calling thread's installed recorder; nullptr = none. */
    static FlightRecorder *active() { return current; }

    /** Is any recorder installed on this thread? */
    static bool wants() { return current != nullptr; }

    /** MMR_OBS_EVENT's test: wants() plus the category mask. */
    static bool
    wantsCat(TraceCat c)
    {
        return current != nullptr &&
               ((current->catMask >> static_cast<unsigned>(c)) & 1u) !=
                   0;
    }

    /** Record only the categories in @p cats (bit = TraceCat value);
     * a fresh recorder accepts everything. */
    void setCategoryMask(std::uint32_t cats) { catMask = cats; }

    /** Install as this thread's recorder and hook mmr_panic so a
     * crash dumps the ring (at most one active per thread). */
    void activate();

    /** Uninstall (also done by the destructor). */
    void deactivate();

    /** Where crash dumps land; default "mmr-flight.json" in cwd. */
    void setDumpPath(const std::string &path) { dumpFile = path; }

    /**
     * Allocation-free ring push: a store into the L1-hot staging line
     * plus, every second event, one full-line commit into the ring.
     * On x86 the commit uses non-temporal stores — a whole 64-byte
     * line written back-to-back drains the write-combining buffer in
     * one burst, costing no cache residency and no read-for-ownership
     * (streaming single 32-byte events would flush it half-full and
     * be slower than plain stores).  An attached trace is drained once
     * per ring's worth of events, just before the ring would
     * overwrite its oldest uncopied line.
     */
    MMR_HOT_PATH void
    note(TraceCat cat, const char *name, Cycle now, std::uint32_t lane,
         ConnId conn, std::int32_t a0 = -1, std::int32_t a1 = -1,
         Phase phase = Phase::Instant)
    {
        Event &e = staged.e[static_cast<std::size_t>(head) & 1];
        e.cycle = now;
        e.name = name;
        e.conn = conn;
        e.a0 = a0;
        e.a1 = a1;
        e.lane = static_cast<std::uint16_t>(lane);
        e.cat = cat;
        e.phase = phase;
        if (head & 1) {
            EventPair &line =
                ring[(static_cast<std::size_t>(head) & mask) >> 1];
#if defined(__SSE2__)
            const auto *src =
                reinterpret_cast<const __m128i *>(&staged);
            auto *dst = reinterpret_cast<__m128i *>(&line);
            _mm_stream_si128(dst + 0, _mm_load_si128(src + 0));
            _mm_stream_si128(dst + 1, _mm_load_si128(src + 1));
            _mm_stream_si128(dst + 2, _mm_load_si128(src + 2));
            _mm_stream_si128(dst + 3, _mm_load_si128(src + 3));
#else
            line = staged;
#endif
            if (head + 1 == drainAt)
                drainTrace(head + 1);
        }
        ++head;
    }

    /** Events ever pushed (>= stored() once the ring wraps). */
    std::uint64_t recorded() const { return head; }

    /** Events currently held (min(recorded, capacity)). */
    std::size_t stored() const;

    std::size_t capacity() const { return ring.size() * 2; }

    /** Oldest retained event (valid when stored() > 0). */
    const Event &oldest() const;

    /** Offer every event recorded from now on to @p sink, in order
     * (one sink at a time; it must outlive the attachment). */
    void attachTrace(TraceSink *sink);

    /** Hand the undrained tail to the sink and detach it (also done
     * by the destructor).  No-op without a sink. */
    void detachTrace();

    /** Serialize the retained window, oldest first, as Chrome
     * trace-event JSON; @p reason ("panic", "recovery_abandoned",
     * ...) lands in the metadata. */
    void writeChromeJson(std::ostream &os, const char *reason) const;

    /** writeChromeJson to @p path; false (with a warning) on I/O
     * failure.  Safe to call from the panic path. */
    bool dumpTo(const std::string &path, const char *reason) const;

    /** Dump the calling thread's active recorder to its dump path;
     * false when none is active.  Used by the panic hook and the
     * RecoveryManager abandonment path. */
    static bool dumpActive(const char *reason);

  private:
    static constexpr std::uint64_t kNoDrain =
        std::numeric_limits<std::uint64_t>::max();

    /** Event @p idx (< head), wherever it lives: the most recent one
     * sits in the staging line until its pair-mate completes it. */
    const Event &
    eventAt(std::uint64_t idx) const
    {
        if ((head & 1) != 0 && idx == head - 1)
            return staged.e[0];
        const std::size_t slot = static_cast<std::size_t>(idx) & mask;
        return ring[slot >> 1].e[slot & 1];
    }

    /** Offer events [drained, @p end) to the sink. */
    void drainTrace(std::uint64_t end);

    // Constant-initialized in every translation unit, so the
    // per-site test reads the TLS slot directly (no init wrapper).
    static inline thread_local FlightRecorder *current = nullptr;

    std::vector<EventPair> ring; ///< preallocated, power-of-two lines
    std::size_t mask;            ///< event-index mask (capacity - 1)
    std::uint32_t catMask = kAllTraceCats; ///< accepted TraceCat bits
    std::uint64_t head = 0;
    std::uint64_t drainAt = kNoDrain; ///< head + 1 that drains the ring
    EventPair staged{};          ///< L1-hot line under construction
    TraceSink *sink = nullptr;   ///< attached trace drain, if any
    std::uint64_t drained = 0;   ///< events already offered to sink
    std::string dumpFile = "mmr-flight.json";
};

/**
 * The --trace drain: every event its recorder commits while attached
 * with a cycle in [from, to], up to @p max_events (later ones are
 * dropped and counted in the JSON).
 */
class TraceSink
{
  public:
    static constexpr std::size_t kDefaultMaxEvents = 1u << 22;

    explicit TraceSink(
        Cycle from = 0, Cycle to = std::numeric_limits<Cycle>::max(),
        std::size_t max_events = kDefaultMaxEvents);

    std::size_t eventCount() const { return events.size(); }
    std::uint64_t droppedEvents() const { return dropped; }

    /** Serialize everything as Chrome trace-event JSON. */
    void writeChromeJson(std::ostream &os) const;

  private:
    friend class FlightRecorder;

    void offer(const FlightRecorder::Event &e);

    Cycle fromCycle;
    Cycle toCycle;
    std::size_t maxEvents;
    std::vector<FlightRecorder::Event> events;
    std::uint64_t dropped = 0;
};

} // namespace mmr

/** The instrumentation macro: one thread-local pointer test and one
 * mask test per site; trailing arguments are note()'s a0, a1, phase. */
#define MMR_OBS_EVENT(cat, name, now, lane, conn, ...) \
    do { \
        if (::mmr::FlightRecorder::wantsCat(cat)) { \
            ::mmr::FlightRecorder::active()->note( \
                cat, name, now, lane, conn, ##__VA_ARGS__); \
        } \
    } while (0)

#endif // MMR_OBS_FLIGHT_RECORDER_HH
