/**
 * @file
 * Link phit buffers (§3.2).
 *
 * Small buffers at each physical input link, "deep enough to store all
 * the phits that arrive during a decoding period", i.e. while the VC
 * memory address for the incoming flit is being computed.  They also
 * provide the low-latency VCT path for short messages when the
 * requested output link is free.
 *
 * At flit-cycle granularity the decoding period is a sub-cycle effect;
 * functionally the buffer is a small ring of flits, each with the
 * output port its decoded header requests.
 */

#ifndef MMR_ROUTER_PHIT_BUFFER_HH
#define MMR_ROUTER_PHIT_BUFFER_HH

#include <array>
#include <cstddef>

#include "base/logging.hh"
#include "base/types.hh"
#include "router/flit.hh"

namespace mmr
{

class PhitBuffer
{
  public:
    /**
     * Capacity in flits.  One flit's worth of phits arrives per flit
     * cycle, so a decode pipeline 3 flit cycles deep plus the flit
     * being decoded needs (3 + 1) x phits-per-flit phits: 4 flits,
     * whatever the phit width.
     */
    static constexpr unsigned kFlits = 4;

    /** A buffered flit and the output port its header requests. */
    struct Entry
    {
        Flit flit;
        PortId out = kInvalidPort;
    };

    bool full() const { return used == kFlits; }
    bool empty() const { return used == 0; }
    std::size_t depth() const { return used; }

    /** Accept a flit arriving from the link; false when full. */
    bool
    push(const Flit &f, PortId out)
    {
        if (full())
            return false;
        ring[(head + used) % kFlits] = Entry{f, out};
        ++used;
        return true;
    }

    Entry
    pop()
    {
        mmr_assert(!empty(), "pop() from empty phit buffer");
        const Entry e = ring[head];
        head = (head + 1) % kFlits;
        --used;
        return e;
    }

  private:
    std::array<Entry, kFlits> ring;
    unsigned head = 0;
    unsigned used = 0;
};

} // namespace mmr

#endif // MMR_ROUTER_PHIT_BUFFER_HH
