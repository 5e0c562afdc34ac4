/**
 * @file
 * Log-bucketed latency histograms (HDR-histogram style) for the
 * per-flit stage decomposition and per-class delay distributions.
 *
 * The paper's QoS argument is about *tails*: a router can report a
 * healthy mean while its p99.9 blows every CBR deadline.  StreamStat
 * keeps moments only and PercentileSketch subsamples, so neither can
 * answer "what is the p99.9 switch delay, exactly, for every flit?"
 * without unbounded memory.  LatencyHistogram answers it with a fixed
 * 8 KiB footprint: 64 power-of-two major buckets split into 16
 * logarithmic sub-buckets each, giving <= 6.25% relative error over
 * the full Cycle range and exact counts for values below 16 cycles
 * (where most switch delays land).
 *
 * Everything is integer arithmetic: record() is a few bit operations
 * plus one increment (safe under MMR_HOT_PATH), and merge() is an
 * element-wise count sum — exactly associative and commutative, so
 * sweep shards can be merged in any order with bit-identical results
 * (unlike StreamStat's floating-point merge).
 */

#ifndef MMR_OBS_HISTOGRAM_HH
#define MMR_OBS_HISTOGRAM_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "base/types.hh"

namespace mmr
{

/**
 * The stations a flit visits between creation and switch egress; each
 * gets its own histogram in the MetricsRecorder (§5 reports only the
 * total — the decomposition attributes it).
 */
enum class LatencyStage : std::uint8_t
{
    SourceQueue,     ///< created -> deposited into the input VC
    VcResidency,     ///< deposited -> head of the VC (behind siblings)
    ArbWait,         ///< head of the VC -> switch grant issued
    SwitchTraversal, ///< grant issued -> flit leaves the switch
    LinkTransit,     ///< on the wire between routers (network mode)
    NumStages
};

// mmr-lint: allow(cycle-type) enumerator count, not a duration
constexpr std::size_t kNumLatencyStages =
    static_cast<std::size_t>(LatencyStage::NumStages);

const char *to_string(LatencyStage s);

/** Per-flit stage durations handed to MetricsRecorder::recordDeparture
 * by the router's apply path (all in flit cycles). */
struct StageSample
{
    Cycle sourceQueue = 0;
    Cycle vcResidency = 0;
    Cycle arbWait = 0;
    Cycle switchTraversal = 0;
};

/** Percentile digest of one histogram, as carried by
 * ExperimentResult (plain numbers: digestable, printable, mergeable
 * only via the histogram it came from). */
struct LatencySummary
{
    std::uint64_t count = 0;
    Cycle p50 = 0;
    Cycle p90 = 0;
    Cycle p99 = 0;
    Cycle p999 = 0;
    Cycle maxCycles = 0;
};

class LatencyHistogram
{
  public:
    /** Sub-bucket resolution: 2^4 = 16 logarithmic slices per
     * power-of-two major bucket (<= 1/16 relative error). */
    static constexpr unsigned kSubBits = 4;
    static constexpr unsigned kSubBuckets = 1u << kSubBits;
    /** One major bucket per value bit — the layout covers all 64. */
    static constexpr unsigned kMajorBuckets = 64;
    /** Majors 0..kSubBits collapse into the exact low range, so the
     * flat array holds (64 - 4 + 1) * 16 counters. */
    static constexpr std::size_t kBuckets =
        static_cast<std::size_t>(kMajorBuckets - kSubBits + 1) *
        kSubBuckets;

    /** Flat index of the bucket holding @p v. */
    static std::size_t
    bucketIndex(std::uint64_t v)
    {
        if (v < kSubBuckets)
            return static_cast<std::size_t>(v); // exact low range
        const unsigned msb =
            63u - static_cast<unsigned>(std::countl_zero(v));
        const unsigned major = msb - kSubBits + 1;
        const auto sub = static_cast<unsigned>(
            (v >> (msb - kSubBits)) & (kSubBuckets - 1));
        return static_cast<std::size_t>(major) * kSubBuckets + sub;
    }

    /** Smallest value mapping to bucket @p index (its reported
     * representative: percentiles never over-state a latency). */
    static std::uint64_t bucketLowerBound(std::size_t index);

    /** O(1), allocation-free: bit ops + two increments. */
    MMR_HOT_PATH void record(std::uint64_t v) { record(v, 1); }

    /** @p n samples of value @p v at once; n == 0 records nothing. */
    MMR_HOT_PATH void
    record(std::uint64_t v, std::uint64_t n)
    {
        if (n == 0)
            return;
        counts[bucketIndex(v)] += n;
        total += n;
        if (v > maxSeen)
            maxSeen = v;
        if (v < minSeen)
            minSeen = v;
    }

    /** Element-wise count sum: exactly associative and commutative,
     * so shard merge order can never change the result. */
    void merge(const LatencyHistogram &other);

    void reset();

    std::uint64_t count() const { return total; }
    std::uint64_t maxValue() const { return total ? maxSeen : 0; }
    std::uint64_t minValue() const { return total ? minSeen : 0; }
    std::uint64_t bucketCount(std::size_t index) const
    {
        return counts[index];
    }

    /**
     * Value at percentile @p p in [0, 100]: the lower bound of the
     * first bucket whose cumulative count reaches ceil(p/100 * n).
     * Returns 0 with no samples; p >= 100 returns the exact max.
     */
    std::uint64_t percentile(double p) const;

    /** Mean over bucket lower bounds (exact below 16 cycles). */
    double mean() const;

    /** The fixed percentile set every result row reports. */
    LatencySummary summarize() const;

    /** True when every bucket is bit-identical to @p other (used by
     * the serial-vs-parallel sweep merge audit). */
    bool identical(const LatencyHistogram &other) const;

    /**
     * Sparse JSON dump: {"count":N,"min":m,"max":M,"p50":...,
     * "buckets":[[lower_bound,count],...]}.  Deterministic: integer
     * fields only, ascending bucket order.
     */
    void writeJson(std::ostream &os) const;

  private:
    std::uint64_t counts[kBuckets] = {};
    std::uint64_t total = 0;
    std::uint64_t maxSeen = 0;
    std::uint64_t minSeen = ~0ULL;
};

} // namespace mmr

#endif // MMR_OBS_HISTOGRAM_HH
