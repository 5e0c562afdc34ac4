/**
 * @file
 * Streaming statistics used by the measurement substrate.
 *
 * The paper reports average delay (microseconds), average jitter (flit
 * cycles) and switch utilization, each averaged over a ~100,000-cycle
 * steady-state window.  These helpers compute streaming moments without
 * retaining samples, plus a percentile sketch for the extended analyses
 * in bench/.  Latency histograms are obs/histogram.hh.
 */

#ifndef MMR_BASE_STATS_HH
#define MMR_BASE_STATS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace mmr
{

/** Welford-style streaming mean / variance / extrema. */
class StreamStat
{
  public:
    void add(double x);

    /** Merge another stat into this one (parallel composition). */
    void merge(const StreamStat &o);

    /** Forget all samples. */
    void reset();

    std::uint64_t count() const { return n; }
    double mean() const { return n ? mu : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }
    double sum() const { return total; }

  private:
    std::uint64_t n = 0;
    double mu = 0.0;
    double m2 = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    double total = 0.0;
};

/**
 * Exact percentile sketch: retains up to a capacity of samples, then
 * switches to uniform reservoir sampling.  Deterministic given the
 * insertion order (uses an internal LCG, no global RNG dependency).
 */
class PercentileSketch
{
  public:
    explicit PercentileSketch(std::size_t capacity = 65536);

    void add(double x);
    void reset();

    std::uint64_t count() const { return n; }

    /** Percentile in [0, 100]; returns 0 with no samples. */
    double percentile(double p) const;

  private:
    std::size_t cap;
    std::uint64_t n = 0;
    std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
    mutable bool dirty = false;
    mutable std::vector<double> samples;
};

/**
 * Ratio counter for utilization-style metrics: events that happened /
 * opportunities for them to happen.
 */
class RatioStat
{
  public:
    void addHit(std::uint64_t k = 1) { hits += k; chances += k; }
    void addMiss(std::uint64_t k = 1) { chances += k; }
    void reset() { hits = 0; chances = 0; }

    std::uint64_t hitCount() const { return hits; }
    std::uint64_t chanceCount() const { return chances; }
    double ratio() const;

  private:
    std::uint64_t hits = 0;
    std::uint64_t chances = 0;
};

} // namespace mmr

#endif // MMR_BASE_STATS_HH
