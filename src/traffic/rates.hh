/**
 * @file
 * Connection rate ladder and bandwidth arithmetic (paper §5).
 *
 * The evaluation draws CBR connections from a fixed set of media-like
 * rates between 64 Kb/s (voice) and 120 Mb/s (uncompressed video) and
 * expresses allocated bandwidth as an integer number of flit cycles
 * per round (§4.1), where a round is K x V flit cycles.
 */

#ifndef MMR_TRAFFIC_RATES_HH
#define MMR_TRAFFIC_RATES_HH

#include <string>
#include <vector>

#include "base/types.hh"

namespace mmr
{

/** Service class of a connection or packet (§2, §3.4).  One byte, so
 * it packs into the 32-byte Flit. */
enum class TrafficClass : std::uint8_t
{
    CBR,        ///< constant bit rate stream (guaranteed bandwidth)
    VBR,        ///< variable bit rate stream (permanent + peak)
    BestEffort, ///< datagram traffic, no reservation
    Control     ///< short control/probe/ack messages, highest priority
};

/** Enumerator count, for per-class fixed arrays. */
constexpr std::size_t kNumTrafficClasses = 4;

std::string to_string(TrafficClass c);

/**
 * The CBR rate ladder of §5: {64 Kb/s, 128 Kb/s, 1.54 Mb/s, 2 Mb/s,
 * 5 Mb/s, 10 Mb/s, 20 Mb/s, 55 Mb/s, 120 Mb/s}.
 */
const std::vector<double> &paperRateLadder();

/**
 * Bandwidth of a connection expressed in flit cycles per round,
 * rounded up so the reservation never undershoots the request (§4.2).
 *
 * @param rate_bps connection rate
 * @param link_rate_bps physical link rate
 * @param cycles_per_round round length (K x V flit cycles)
 */
unsigned cyclesPerRound(double rate_bps, double link_rate_bps,
                        unsigned cycles_per_round);

/**
 * The rate actually granted by a cycles/round reservation, in bits/s.
 * Quantization error shrinks as K grows — the §4.1 trade-off probed by
 * bench_k_tradeoff.
 */
double grantedRate(unsigned alloc_cycles, double link_rate_bps,
                   unsigned cycles_per_round);

} // namespace mmr

#endif // MMR_TRAFFIC_RATES_HH
