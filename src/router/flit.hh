/**
 * @file
 * The unit of flow control (§3.1, §3.4).
 *
 * PCS data streams are sequences of flits on an established
 * connection; control and best-effort messages are single-flit packets
 * (packet size equals flit size), so one struct covers both.  Probes
 * and acknowledgments for connection establishment are control flits
 * with a ControlOp payload.
 */

#ifndef MMR_ROUTER_FLIT_HH
#define MMR_ROUTER_FLIT_HH

#include <cstdint>
#include <type_traits>

#include "base/logging.hh"
#include "base/types.hh"
#include "traffic/rates.hh"

namespace mmr
{

/** Operations carried by control words / control packets (§4.3). */
enum class ControlOp : std::uint8_t
{
    None,         ///< plain data or best-effort payload
    Probe,        ///< EPB routing probe (connection setup)
    ProbeBack,    ///< backtracking probe
    Ack,          ///< connection-established acknowledgment
    Nack,         ///< connection refused / torn down
    SetBandwidth, ///< dynamic bandwidth renegotiation
    SetPriority,  ///< dynamic priority change for a VBR connection
    AbortFrame,   ///< drop the rest of a late video frame
    Teardown      ///< release an established connection
};

/**
 * One flit in 32 bytes (the static_assert below).  The paper's flit
 * is 128 bits (§5); the simulator's carries no payload bits, only the
 * header fields the model reads — identity (conn, seq), timing
 * (createTime, and the ready time as a 32-bit offset from it),
 * routing (src, dst) and one byte each of class, control op and
 * flags.  Every VC RAM slot, link and mailbox record holds this
 * struct, so its size sets the resident bytes of every buffer in the
 * network.
 */
struct Flit
{
    ConnId conn = kInvalidConn;
    std::uint32_t seq = 0;    ///< per-connection sequence number

    Cycle createTime = 0;     ///< generation time at the source

    NodeId src = kInvalidNode; ///< network-level source node
    NodeId dst = kInvalidNode; ///< network-level destination node

  private:
    // mmr-lint: allow(cycle-type) an age, not a time point: 32 bits
    // hold 2^32 cycles (~7 simulated minutes at the paper's 103 ns
    // cycle), and setReadyTime() asserts every value fits.
    std::uint32_t readyOffsetCycles = 0;

  public:
    TrafficClass klass = TrafficClass::CBR;
    ControlOp op = ControlOp::None;

    bool downPhase : 1 = false; ///< up*-down* state for adaptive VCT

    /** Payload damaged on the wire (fault injection); the receiving
     * router's CRC check discards such flits with accounting. */
    bool corrupted : 1 = false;

    /** Cycle the flit became ready at the current switch input. */
    Cycle readyTime() const { return createTime + readyOffsetCycles; }

    /** Set the ready time; it is stored relative to createTime, so
     * set createTime first. */
    void
    setReadyTime(Cycle t)
    {
        mmr_assert(t >= createTime && t - createTime <= kMaxReadyOffset,
                   "ready time ", t, " outside the 32-bit window above "
                   "createTime ", createTime);
        readyOffsetCycles = static_cast<std::uint32_t>(t - createTime);
    }

    /** Largest readyTime() - createTime a flit can hold. */
    static constexpr Cycle kMaxReadyOffset = 0xffffffffu;

    bool isControl() const { return klass == TrafficClass::Control; }
    bool isStream() const
    {
        return klass == TrafficClass::CBR || klass == TrafficClass::VBR;
    }
};

static_assert(sizeof(Flit) <= 32, "a flit must fit one 32-byte VC slot");
static_assert(std::is_trivially_copyable_v<Flit>,
              "flits are copied as plain bytes through rings and links");

} // namespace mmr

#endif // MMR_ROUTER_FLIT_HH
