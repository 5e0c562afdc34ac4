#include "base/stats.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace mmr
{

void
StreamStat::add(double x)
{
    ++n;
    total += x;
    const double delta = x - mu;
    mu += delta / static_cast<double>(n);
    m2 += delta * (x - mu);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
}

void
StreamStat::merge(const StreamStat &o)
{
    if (o.n == 0)
        return;
    if (n == 0) {
        *this = o;
        return;
    }
    const double delta = o.mu - mu;
    const double nn = static_cast<double>(n + o.n);
    m2 += o.m2 + delta * delta * static_cast<double>(n) *
                     static_cast<double>(o.n) / nn;
    mu = (mu * static_cast<double>(n) + o.mu * static_cast<double>(o.n)) /
         nn;
    n += o.n;
    total += o.total;
    lo = std::min(lo, o.lo);
    hi = std::max(hi, o.hi);
}

void
StreamStat::reset()
{
    *this = StreamStat{};
}

double
StreamStat::variance() const
{
    return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;
}

double
StreamStat::stddev() const
{
    return std::sqrt(variance());
}

PercentileSketch::PercentileSketch(std::size_t capacity) : cap(capacity)
{
    mmr_assert(cap > 0, "sketch capacity must be positive");
    // Reserve the full capacity up front: the sketch sits on the
    // per-delivered-flit path, and growth reallocations there are the
    // kind of steady-state heap traffic the zero-allocation audit
    // forbids.
    samples.reserve(cap);
}

void
PercentileSketch::add(double x)
{
    ++n;
    dirty = true;
    if (samples.size() < cap) {
        samples.push_back(x);
        return;
    }
    // Reservoir sampling: keep each of the n samples with prob cap/n.
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t slot = (lcg >> 11) % n;
    if (slot < cap)
        samples[slot] = x;
}

void
PercentileSketch::reset()
{
    samples.clear();
    n = 0;
    dirty = false;
}

double
PercentileSketch::percentile(double p) const
{
    mmr_assert(p >= 0.0 && p <= 100.0, "percentile out of [0,100]");
    if (samples.empty())
        return 0.0;
    if (dirty) {
        std::sort(samples.begin(), samples.end());
        dirty = false;
    }
    const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
    const auto i = static_cast<std::size_t>(rank);
    if (i + 1 >= samples.size())
        return samples.back();
    const double frac = rank - static_cast<double>(i);
    return samples[i] * (1.0 - frac) + samples[i + 1] * frac;
}

double
RatioStat::ratio() const
{
    return chances ? static_cast<double>(hits) /
                         static_cast<double>(chances)
                   : 0.0;
}

} // namespace mmr
