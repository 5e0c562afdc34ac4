/**
 * @file
 * Routing and Arbitration Unit (§3.5): the free-VC pools and the
 * output-VC owner table.
 *
 * The unit's other facts live where they are read.  The direct
 * mapping of an input virtual channel is its VcState
 * (`outPort()`/`outVc()`), and the EPB history store is the probe's
 * SearchHistory (network/epb.hh).  What stays here is the free-VC
 * bookkeeping per port, which both connection establishment (PCS)
 * and best-effort VC allocation (VCT) draw from, and the owner of each
 * output VC, which refuses a second mapping onto one output channel.
 */

#ifndef MMR_ROUTER_ROUTING_UNIT_HH
#define MMR_ROUTER_ROUTING_UNIT_HH

#include <vector>

#include "base/bitvector.hh"
#include "base/types.hh"

namespace mmr
{

/** A (port, virtual channel) pair. */
struct ChannelRef
{
    PortId port = kInvalidPort;
    VcId vc = kInvalidVc;

    bool valid() const { return port != kInvalidPort; }
    bool operator==(const ChannelRef &o) const
    {
        return port == o.port && vc == o.vc;
    }
};

class RoutingUnit
{
  public:
    RoutingUnit(unsigned num_ports, unsigned vcs_per_port);

    /** Allocate the lowest free VC on an input/output port. */
    VcId allocInputVc(PortId port);
    VcId allocOutputVc(PortId port);

    void freeInputVc(PortId port, VcId vc);
    void freeOutputVc(PortId port, VcId vc);

    unsigned freeInputVcCount(PortId port) const;
    unsigned freeOutputVcCount(PortId port) const;

    /** Make @p in the owner of output channel @p out; panics when
     * @p out already has one. */
    void map(ChannelRef in, ChannelRef out);

    /** Release output channel @p out; panics unless @p in owns it. */
    void unmap(ChannelRef in, ChannelRef out);

    unsigned numPorts() const { return ports; }
    unsigned vcsPerPort() const { return vcs; }

  private:
    std::size_t index(ChannelRef c) const;

    unsigned ports;
    unsigned vcs;
    std::vector<BitVector> inputFree;  ///< per input port
    std::vector<BitVector> outputFree; ///< per output port
    std::vector<ChannelRef> owner;     ///< indexed by output channel
};

} // namespace mmr

#endif // MMR_ROUTER_ROUTING_UNIT_HH
