#include "harness/network_experiment.hh"

#include <algorithm>
#include <cctype>
#include <memory>
#include <utility>
#include <vector>

#include "base/fnv1a.hh"
#include "base/logging.hh"
#include "fault/injector.hh"
#include "network/interface.hh"
#include "obs/flight_recorder.hh"
#include "sim/invariant.hh"
#include "sim/kernel.hh"

namespace mmr
{

namespace
{

/** Deterministic stream destination: host @p n's @p k-th stream. */
NodeId
dstFor(NodeId n, unsigned k, unsigned nodes)
{
    NodeId d = (n + 1 + 2 * k) % nodes;
    if (d == n)
        d = (d + 1) % nodes;
    return d;
}

} // namespace

Topology
topologyFromSpec(const std::string &spec, std::uint64_t seed)
{
    const auto colon = spec.find(':');
    if (colon == std::string::npos)
        mmr_fatal("topology spec '", spec, "' lacks ':' (try mesh:4x4)");
    const std::string kind = spec.substr(0, colon);
    const std::string args = spec.substr(colon + 1);

    // Digits only: strtoul would take a sign or leading blanks and
    // wrap out-of-range values.  Nine digits stay below 2^32.
    auto parse_uint = [&](const std::string &s) -> unsigned {
        const bool digits =
            !s.empty() && s.size() <= 9 &&
            std::all_of(s.begin(), s.end(), [](char c) {
                return std::isdigit(static_cast<unsigned char>(c));
            });
        const unsigned long v = digits ? std::stoul(s) : 0;
        if (v == 0)
            mmr_fatal("bad number '", s, "' in topology spec '", spec,
                      "'");
        return static_cast<unsigned>(v);
    };
    // The builders assert their shape preconditions; a spec is user
    // input, so every one is checked here first, and so is the size:
    // a typo must be an error, not an out-of-memory kill.
    auto require = [&](bool ok, const char *what) {
        if (!ok)
            mmr_fatal("topology spec '", spec, "': ", what);
    };
    // Nodes are checked before links are counted: with the node
    // count capped, no link count below can overflow 64 bits.
    auto cap_nodes = [&](std::uint64_t nodes) {
        if (nodes > kMaxTopologyNodes)
            mmr_fatal("topology spec '", spec, "' asks for ", nodes,
                      " nodes (limit ", kMaxTopologyNodes, ")");
    };
    auto cap_links = [&](std::uint64_t links) {
        if (links > kMaxTopologyLinks)
            mmr_fatal("topology spec '", spec, "' asks for ", links,
                      " links (limit ", kMaxTopologyLinks, ")");
    };
    // "A<sep>B" as two numbers.
    auto pair = [&](char sep, const char *form) {
        const auto at = args.find(sep);
        if (at == std::string::npos)
            mmr_fatal("'", kind, "' spec needs ", form, ": '", spec, "'");
        return std::pair<std::uint64_t, std::uint64_t>(
            parse_uint(args.substr(0, at)),
            parse_uint(args.substr(at + 1)));
    };

    if (kind == "mesh" || kind == "torus") {
        const auto [w, h] = pair('x', "WxH");
        if (kind == "mesh") {
            cap_nodes(w * h);
            cap_links((w - 1) * h + w * (h - 1));
            return Topology::mesh2d(static_cast<unsigned>(w),
                                    static_cast<unsigned>(h));
        }
        require(w > 2 && h > 2, "a torus needs width and height of at "
                                "least 3 (smaller ones repeat links)");
        cap_nodes(w * h);
        cap_links(2 * w * h);
        return Topology::torus2d(static_cast<unsigned>(w),
                                 static_cast<unsigned>(h));
    }
    if (kind == "ring") {
        const unsigned n = parse_uint(args);
        require(n >= 3, "a ring needs at least 3 nodes");
        cap_nodes(n);
        return Topology::ring(n);
    }
    if (kind == "star") {
        const unsigned leaves = parse_uint(args);
        cap_nodes(leaves + std::uint64_t{1});
        return Topology::star(leaves);
    }
    if (kind == "min") {
        const auto [radix, stages] = pair(':', "RADIX:STAGES");
        require(radix >= 2, "a MIN radix must be at least 2");
        require(stages >= 2, "a MIN needs at least 2 stages");
        std::uint64_t width = 1;
        for (std::uint64_t i = 1; i < stages && width <= kMaxTopologyNodes;
             ++i)
            width *= radix;
        cap_nodes(width);
        cap_nodes(stages * width);
        cap_links((stages - 1) * width * radix);
        return Topology::multistage(static_cast<unsigned>(radix),
                                    static_cast<unsigned>(stages));
    }
    if (kind == "fattree") {
        const std::uint64_t radix = parse_uint(args);
        require(radix >= 4 && radix % 2 == 0,
                "a fat-tree radix must be even and at least 4");
        cap_nodes(radix * radix / 4 + radix * radix);
        cap_links(radix * radix * radix / 2);
        return Topology::fatTree(static_cast<unsigned>(radix));
    }
    if (kind == "leafspine") {
        const auto [spines, leaves] = pair(':', "SPINES:LEAVES");
        cap_nodes(spines + leaves);
        cap_links(spines * leaves);
        return Topology::leafSpine(static_cast<unsigned>(spines),
                                   static_cast<unsigned>(leaves));
    }
    if (kind == "irregular") {
        const auto c1 = args.find(':');
        const auto c2 =
            c1 == std::string::npos ? c1 : args.find(':', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos)
            mmr_fatal("'irregular' spec needs N:EXTRA:MAXDEG: '", spec,
                      "'");
        const unsigned n = parse_uint(args.substr(0, c1));
        const unsigned extra =
            parse_uint(args.substr(c1 + 1, c2 - c1 - 1));
        const unsigned maxdeg = parse_uint(args.substr(c2 + 1));
        require(n >= 2, "an irregular topology needs at least 2 nodes");
        require(maxdeg >= 2, "an irregular degree bound must be at "
                             "least 2");
        cap_nodes(n);
        cap_links(std::uint64_t{n} - 1 + extra);
        Rng trng(seed ^ 0x7090109fca17e5ULL);
        return Topology::irregular(n, extra, maxdeg, trng);
    }
    mmr_fatal("unknown topology kind '", kind, "' in '", spec,
              "' (mesh/torus/ring/star/irregular/min/fattree/"
              "leafspine)");
}

NetworkExperimentResult
runNetworkExperiment(const NetworkExperimentConfig &cfg)
{
    Topology topo = topologyFromSpec(cfg.topologySpec, cfg.seed);
    const unsigned nodes = topo.numNodes();

    NetworkConfig ncfg = cfg.net;
    ncfg.seed = cfg.seed;
    Network net(std::move(topo), ncfg);
    net.endToEnd().setQosBudget(TrafficClass::CBR,
                                cfg.cbrDelayBudgetCycles);

    // Black box for the fault machinery: a crash or an abandoned
    // recovery dumps the recent sched/credit/fault events.  A caller
    // that already installed a recorder (bench front ends) keeps it.
    FlightRecorder blackBox;
    const bool ownBlackBox = FlightRecorder::active() == nullptr;
    if (ownBlackBox)
        blackBox.activate();

    // The fault plan spans the loaded portion of the run by default.
    FaultModel model = cfg.faults;
    if (model.horizon == 0)
        model.horizon = cfg.warmupCycles + cfg.measureCycles;
    FaultPlan plan;
    if (!cfg.faultEvents.empty()) {
        plan = FaultPlan::fromEvents(cfg.faultEvents, net.topology());
        plan.setModel(model);
    } else {
        plan = FaultPlan::random(net.topology(), model,
                                 cfg.seed ^ 0xfa17a11edfa57ULL);
    }

    FaultInjector injector(net, std::move(plan), cfg.seed + 101);
    RecoveryManager recovery(net, cfg.recovery, cfg.seed + 202);

    // The churn engine is ticked with the hosts (coordinator-serial);
    // its arrival schedule spans the loaded portion of the run, and
    // all its draws live on sub-RNGs of a dedicated seed tweak.
    std::unique_ptr<ChurnEngine> churn;
    if (cfg.churn.enabled)
        churn = std::make_unique<ChurnEngine>(
            net, cfg.churn, cfg.warmupCycles + cfg.measureCycles,
            cfg.seed ^ 0x5e5510bca5e1dULL);

    InvariantChecker checker;
    net.registerInvariants(checker, cfg.invariantPeriod);
    injector.registerInvariants(checker, cfg.invariantPeriod);
    recovery.registerInvariants(checker, cfg.invariantPeriod);
    if (churn)
        churn->registerInvariants(checker, cfg.invariantPeriod);

    Kernel kernel;
    kernel.registerInvariants(checker);
    kernel.add(&injector, "fault-injector");
    kernel.add(&recovery, "recovery-manager");
    kernel.add(&net, "network");
    kernel.add(&checker, "invariants");

    NetworkExperimentResult r;
    r.nodes = nodes;

    std::vector<std::unique_ptr<NetworkInterface>> hosts;
    hosts.reserve(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        hosts.push_back(
            std::make_unique<NetworkInterface>(net, n, cfg.seed + n));
        if (cfg.recovery.enabled)
            hosts.back()->attachRecovery(&recovery);
        for (unsigned k = 0; k < cfg.cbrStreamsPerHost; ++k) {
            ++r.streamsRequested;
            if (hosts.back()->openCbrStream(dstFor(n, k, nodes),
                                            cfg.cbrRateBps))
                ++r.streamsAccepted;
        }
        for (unsigned k = 0; k < cfg.beFlowsPerHost; ++k)
            hosts.back()->addBestEffortFlow(dstFor(n, k + 1, nodes),
                                            cfg.beRateBps);
    }

    auto run_for = [&](Cycle cycles) {
        for (Cycle c = 0; c < cycles; ++c) {
            for (auto &h : hosts)
                h->tick(kernel.now());
            if (churn)
                churn->tick(kernel.now());
            kernel.step();
        }
    };

    run_for(cfg.warmupCycles);
    net.endToEnd().startMeasurement(kernel.now());
    run_for(cfg.measureCycles);
    if (churn)
        churn->beginDrain(kernel.now());
    run_for(cfg.drainCycles);

    r.cycles = kernel.now();
    r.acceptance =
        r.streamsRequested
            ? static_cast<double>(r.streamsAccepted) /
                  static_cast<double>(r.streamsRequested)
            : 0.0;

    const MetricsRecorder &e2e = net.endToEnd();
    r.meanDelayCycles = e2e.meanDelayCycles();
    r.meanJitterCycles = e2e.meanJitterCycles();
    r.p99DelayCycles = e2e.delayPercentile(0.99);

    const QosCounters &q = e2e.qos(TrafficClass::CBR);
    r.qosFlits = q.flits;
    r.qosViolations = q.violations;
    r.qosViolationRate = q.violationRate();
    r.worstQosExcessCycles = q.worstExcessCycles;
    r.cbrLatency = e2e.classHistogram(TrafficClass::CBR).summarize();
    r.linkTransitLatency =
        e2e.stageHistogram(LatencyStage::LinkTransit).summarize();

    for (auto &h : hosts) {
        r.streamsAlive += h->establishedStreams();
        r.injectedFlits += h->injectedFlits();
        r.droppedInRecovery += h->flitsDroppedInRecovery();
        r.backloggedAtEnd += h->backloggedFlits();
        for (ConnId id : h->connections()) {
            const ConnectionRecorder *c = e2e.connection(id);
            if (c && c->delay().count() > 0)
                r.maxAliveConnMeanDelay =
                    std::max(r.maxAliveConnMeanDelay, c->delay().mean());
        }
    }
    r.aliveFraction =
        r.streamsAccepted
            ? static_cast<double>(r.streamsAlive) /
                  static_cast<double>(r.streamsAccepted)
            : 0.0;

    r.flitsDelivered = net.flitsDelivered();
    r.flitsLost = net.flitsLostToFailures();
    r.flitsCorrupted = net.flitsCorrupted();
    r.datagramsSent = net.datagramsSent();
    r.datagramsDelivered = net.datagramsDelivered();
    r.datagramsLost = net.datagramsLost();
    r.datagramDrops = net.datagramDrops();

    r.linkDowns = injector.linkDownsApplied();
    r.linkUps = injector.linkUpsApplied();
    r.connectionsFailed = net.connectionsFailed();
    r.recoveryRetries = recovery.retriesLaunched();
    r.connectionsRecovered = recovery.connectionsRecovered();
    r.connectionsAbandoned = recovery.connectionsAbandoned();
    r.probeTimeouts = net.probes().setupTimeouts();
    r.probeMessagesLost = net.probes().messagesLost();

    if (churn) {
        const SessionLedger &sl = churn->ledger();
        r.sessionsArrived = sl.arrived;
        r.sessionsAdmitted = sl.admitted;
        r.sessionsRejected = sl.rejected;
        r.sessionsRejectedBusy = sl.rejectedBusy;
        r.sessionsCompleted = sl.completed;
        r.sessionsAbandoned = sl.abandoned;
        r.sessionAcceptance = sl.acceptanceRatio();
        r.sessionPeakLive = churn->peakLiveSessions();
        r.sessionPoolBytes = churn->poolBytes();
        r.sessionLiveBytes = ChurnEngine::liveSessionBytes();
        r.sessionFlitsInjected = churn->flitsInjected();
        r.sessionFlitsDropped = churn->flitsDroppedBackpressure();
        r.sessionsLeakedAtEnd = churn->liveSessions();
        r.retiredConnRecorders = e2e.retiredConnections();
        r.sessionSetupLatency = churn->setupLatency().summarize();
    }
    r.pendingSetupsAtEnd = net.pendingSetups();
    r.openConnsAtEnd = net.openConnectionCount();

    r.invariantChecks = checker.checksRun();
    if (ownBlackBox)
        blackBox.deactivate();
    return r;
}

std::uint64_t
networkResultDigest(const NetworkExperimentResult &r)
{
    Fnv1a h;
    h.addU64(r.nodes);
    h.addU64(r.streamsRequested);
    h.addU64(r.streamsAccepted);
    h.addU64(r.streamsAlive);
    h.addDouble(r.acceptance);
    h.addDouble(r.aliveFraction);
    h.addDouble(r.meanDelayCycles);
    h.addDouble(r.meanJitterCycles);
    h.addDouble(r.p99DelayCycles);
    h.addDouble(r.maxAliveConnMeanDelay);
    h.addU64(r.flitsDelivered);
    h.addU64(r.flitsLost);
    h.addU64(r.flitsCorrupted);
    h.addU64(r.injectedFlits);
    h.addU64(r.droppedInRecovery);
    h.addU64(r.backloggedAtEnd);
    h.addU64(r.datagramsSent);
    h.addU64(r.datagramsDelivered);
    h.addU64(r.datagramsLost);
    h.addU64(r.datagramDrops);
    h.addU64(r.linkDowns);
    h.addU64(r.linkUps);
    h.addU64(r.connectionsFailed);
    h.addU64(r.recoveryRetries);
    h.addU64(r.connectionsRecovered);
    h.addU64(r.connectionsAbandoned);
    h.addU64(r.probeTimeouts);
    h.addU64(r.probeMessagesLost);
    h.addU64(r.qosFlits);
    h.addU64(r.qosViolations);
    h.addDouble(r.qosViolationRate);
    h.addU64(r.worstQosExcessCycles);
    h.addU64(r.sessionsArrived);
    h.addU64(r.sessionsAdmitted);
    h.addU64(r.sessionsRejected);
    h.addU64(r.sessionsRejectedBusy);
    h.addU64(r.sessionsCompleted);
    h.addU64(r.sessionsAbandoned);
    h.addDouble(r.sessionAcceptance);
    h.addU64(r.sessionPeakLive);
    h.addU64(r.sessionLiveBytes);
    h.addU64(r.sessionFlitsInjected);
    h.addU64(r.sessionFlitsDropped);
    h.addU64(r.sessionsLeakedAtEnd);
    h.addU64(r.retiredConnRecorders);
    h.addU64(r.pendingSetupsAtEnd);
    h.addU64(r.openConnsAtEnd);
    for (const LatencySummary *s : {&r.cbrLatency,
                                    &r.linkTransitLatency,
                                    &r.sessionSetupLatency}) {
        h.addU64(s->count);
        h.addU64(s->p50);
        h.addU64(s->p90);
        h.addU64(s->p99);
        h.addU64(s->p999);
        h.addU64(s->maxCycles);
    }
    h.addU64(r.cycles);
    return h.value();
}

} // namespace mmr
