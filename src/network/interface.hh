/**
 * @file
 * Host network interface (§4.2, §4.3).
 *
 * The paper pushes complexity to the interfaces: they run the traffic
 * sources, police injection (back-pressure from the router propagates
 * here), and originate the dynamic bandwidth-management commands.
 * This class bundles that host-side logic for the examples and the
 * network benches: it owns one traffic source per established
 * connection, injects arrivals each flit cycle (holding a backlog when
 * the router pushes back), and can generate best-effort datagram flows
 * to random destinations.
 */

#ifndef MMR_NETWORK_INTERFACE_HH
#define MMR_NETWORK_INTERFACE_HH

#include <deque>
#include <memory>
#include <vector>

#include "network/network.hh"
#include "traffic/besteffort_source.hh"
#include "traffic/cbr_source.hh"
#include "traffic/source.hh"
#include "traffic/trace_source.hh"
#include "traffic/vbr_source.hh"

namespace mmr
{

class RecoveryManager;

class NetworkInterface
{
  public:
    NetworkInterface(Network &net, NodeId host, std::uint64_t seed);

    /** Establish a CBR stream to @p dst and attach its source. */
    bool openCbrStream(NodeId dst, double rate_bps,
                       SetupPolicy policy = SetupPolicy::Epb);

    /** Establish a VBR stream to @p dst. */
    bool openVbrStream(NodeId dst, const VbrProfile &profile,
                       int priority, SetupPolicy policy = SetupPolicy::Epb);

    /**
     * Establish a VBR stream that replays a recorded frame-size trace
     * (one frame size in bits per line).  The permanent bandwidth is
     * the trace's own mean rate; the declared peak is
     * @p peak_to_mean x that mean (§4.2).
     */
    bool openTraceStream(NodeId dst, const std::string &trace_path,
                         double fps, double peak_to_mean, int priority,
                         SetupPolicy policy = SetupPolicy::Epb);

    /** Add a Poisson best-effort flow to a fixed destination. */
    void addBestEffortFlow(NodeId dst, double rate_bps);

    /** Inject everything that became ready during cycle @p now. */
    void tick(Cycle now);

    /**
     * Recovery policy after a link failure kills one of this host's
     * streams (§4.2 pushes such decisions to the interfaces): when
     * enabled, the interface re-runs connection establishment toward
     * the same destination at the same rate and resumes transmission
     * on the new path.
     */
    void setAutoReestablish(bool on) { autoReestablish = on; }

    /**
     * Delegate failure handling to a RecoveryManager (fault/
     * recovery.hh) instead of the synchronous auto-reestablish above:
     * every stream opened (and any already open) is adopted, and when
     * one fails the interface waits on the manager's timed,
     * backoff-scheduled re-setup — dropping the source's arrivals with
     * accounting while recovery is in progress, resuming on the
     * replacement connection, and retiring the stream if recovery is
     * abandoned.  Pass nullptr to detach.
     */
    void attachRecovery(RecoveryManager *mgr);

    unsigned lostStreams() const { return lost; }
    unsigned reestablishedStreams() const { return reestablished; }

    /** Source flits discarded while their stream awaited recovery. */
    std::uint64_t flitsDroppedInRecovery() const
    {
        return droppedInRecovery;
    }

    NodeId node() const { return host; }
    unsigned establishedStreams() const
    {
        return static_cast<unsigned>(streams.size());
    }
    unsigned refusedStreams() const { return refused; }
    std::uint64_t backloggedFlits() const;
    std::uint64_t injectedFlits() const { return injected; }

    /** Connection ids of this host's established streams. */
    std::vector<ConnId> connections() const;

  private:
    struct Stream
    {
        // Read for every stream every cycle, so kept together at the
        // front: the rest of the record is touched only when the
        // stream has work.
        /**
         * First cycle with work: the source's nextDueCycle() while the
         * backlog is empty (arrivals() is a side-effect-free zero
         * before it, by the TrafficSource contract), 0 while a
         * backlog waits.
         */
        double nextDue = 0.0;
        /** Injection ticket of conn; the default slot reads dead. */
        std::uint32_t ticketSlot = ~0u;
        std::uint32_t ticketEpoch = 0;
        /**
         * Injection endpoint resolved under the ticket above.  While
         * the ticket is live the connection is open, not closing and
         * not failed, and its source router, port, VC, class and
         * endpoints cannot change, so the handle stays current.
         */
        Network::InjectHandle handle;
        ConnId conn;
        /** Waiting on the RecoveryManager for a replacement path. */
        bool recovering = false;
        NodeId dst = kInvalidNode;
        double rateBps = 0.0; ///< for re-establishment after failure
        bool isVbr = false;
        VbrProfile profile;
        int priority = 0;
        std::unique_ptr<TrafficSource> source;
        std::deque<Flit> backlog; ///< flits refused by the router
        std::uint32_t seq = 0;
    };

    /**
     * True while @p s's connection is open (Network::ConnState::Open).
     * A live ticket answers with one array read; a dead one falls
     * back to the connection-state lookup and re-mints the ticket.
     */
    bool streamOpen(Stream &s);

    /**
     * Re-mint @p s's dead ticket and re-resolve its handle under it.
     * A closing or gone connection mints nothing: the ticket stays
     * dead and the handle invalid, as resolveInject() would give.
     */
    void refreshEndpoint(Stream &s);

    /** One due stream's cycle: poll its source, inject or drop the
     * arrivals, drain its backlog, and set its next due cycle. */
    void pollStream(Stream &s, Cycle now);

    /** Handle a stream whose connection failed; true when replaced. */
    bool recoverStream(Stream &s);

    /** Register a stream with the attached RecoveryManager. */
    void adoptStream(const Stream &s);

    /**
     * Managed-recovery health step for one failed stream: consume the
     * manager's status and return true when the stream survives (still
     * recovering, or swapped onto its replacement connection).
     */
    bool pollRecovery(Stream &s);

    struct BeFlow
    {
        NodeId dst;
        ConnId flow;
        std::unique_ptr<PoissonSource> source;
        std::uint32_t seq = 0;
        double nextDue = 0.0; ///< cached source->nextDueCycle()
    };

    Network &net;
    // Read by every tick, so kept on the object's first cache line.
    /** Earliest Stream::nextDue / BeFlow::nextDue: before it, tick()
     * has no injection work. */
    double nextDue = 0.0;
    /** Network::ticketGeneration() at the last liveness sweep. */
    std::uint64_t seenTicketGen = ~std::uint64_t{0};
    unsigned recoveringStreams = 0; ///< as of the last liveness sweep
    NodeId host;
    Rng rng;
    std::vector<Stream> streams;
    std::vector<BeFlow> beFlows;
    unsigned refused = 0;
    unsigned lost = 0;
    unsigned reestablished = 0;
    bool autoReestablish = false;
    RecoveryManager *recovery = nullptr;
    std::uint64_t injected = 0;
    std::uint64_t droppedInRecovery = 0;
    ConnId nextBeFlow;
};

} // namespace mmr

#endif // MMR_NETWORK_INTERFACE_HH
