/**
 * @file
 * Head-flit priority policies (§4.4, §5.1).
 *
 * The MMR proposal is *dynamic priority biasing*: the priority of the
 * flit at the head of an input virtual channel is recomputed every
 * flit cycle as the ratio of the delay the flit has experienced at the
 * switch to the inter-arrival time of its connection, so priorities of
 * fast connections grow at a faster rate and bandwidth distribution
 * follows the QoS metric rather than raw waiting time.
 *
 * The comparison baseline is a fixed (static, rate-derived) priority.
 * An age policy (priority == waiting time, the classical scheme the
 * paper contrasts with) is included for the ablation benches.
 */

#ifndef MMR_ROUTER_PRIORITY_HH
#define MMR_ROUTER_PRIORITY_HH

#include <string>

#include "base/logging.hh"
#include "base/types.hh"
#include "router/vc_state.hh"

namespace mmr
{

enum class PriorityPolicy
{
    Biased, ///< delay / inter-arrival, recomputed each cycle (MMR)
    Fixed,  ///< static rate-derived constant
    Age     ///< raw waiting time (time spent in the network)
};

std::string to_string(PriorityPolicy p);

/**
 * Service tier of a candidate (§4.3 ordering).  Larger is served
 * first: "The link scheduling algorithm first assigns all the flit
 * cycles in a round for CBR connections.  Then, it assigns the
 * permanent bandwidth to every VBR connection", then VBR excess
 * (permanent..peak) in priority order, and best effort last; control
 * packets pre-empt everything (§3.4).
 */
enum class ServiceTier : int
{
    BestEffort = 1,
    VbrExcess = 2,
    VbrPermanent = 3, ///< VBR within its permanent bandwidth
    Guaranteed = 4,   ///< CBR within its allocation
    Control = 5
};

/**
 * Compute the scheduling priority of the first ungranted flit of a
 * VC under the given policy.
 *
 * Inline: the link schedulers recompute this for every eligible VC
 * every flit cycle (dynamic priority biasing is per-cycle by design).
 *
 * @param policy priority policy in force
 * @param vc channel state (provides head flit and inter-arrival)
 * @param now current flit cycle
 */
inline double
headPriority(PriorityPolicy policy, const VcState &vc, Cycle now)
{
    const Flit &head = vc.ungrantedHead();
    const double waited =
        now >= head.readyTime()
            ? static_cast<double>(now - head.readyTime())
            : 0.0;

    switch (policy) {
      case PriorityPolicy::Biased: {
        const double ia = vc.interArrival();
        // Connections without a declared rate (best-effort, control)
        // age like a 1-cycle inter-arrival stream.
        return ia > 0.0 ? waited / ia : waited;
      }
      case PriorityPolicy::Fixed: {
        // Static priority proportional to the connection rate: a
        // 120 Mb/s stream always beats a 64 Kb/s one.
        const double ia = vc.interArrival();
        return ia > 0.0 ? 1.0 / ia : 0.0;
      }
      case PriorityPolicy::Age:
        return waited;
    }
    mmr_panic("unhandled priority policy");
}

/**
 * Service tier of the VC's next grant given its per-round quota
 * consumption (§4.3).
 */
inline ServiceTier
serviceTier(const VcState &vc)
{
    switch (vc.trafficClass()) {
      case TrafficClass::Control:
        return ServiceTier::Control;
      case TrafficClass::CBR:
        return ServiceTier::Guaranteed;
      case TrafficClass::VBR:
        return vc.serviced() + vc.pendingGrants() < vc.permCycles()
                   ? ServiceTier::VbrPermanent
                   : ServiceTier::VbrExcess;
      case TrafficClass::BestEffort:
        return ServiceTier::BestEffort;
    }
    mmr_panic("unhandled traffic class");
}

} // namespace mmr

#endif // MMR_ROUTER_PRIORITY_HH
