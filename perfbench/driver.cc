/**
 * @file
 * Benchmark driver: one repetition of one workload, in a fresh
 * process, printed as one JSON object on stdout (perfbench/run.py
 * starts the repetitions and aggregates them).
 *
 * All layer times are taken here, outside the library, around calls
 * into its public functions.  The single-router workload runs the
 * library's own SingleRouterExperiment; a traced repetition turns on
 * its kernel component attribution and stamps every cycle from an
 * invariant-checker hook.  The network workloads compose the steps of
 * runNetworkExperiment() here, from the same public calls in the same
 * order and with the flight recorder active, so each step can be
 * timed; a traced repetition registers every kernel component through
 * a timing wrapper and times the host and churn ticks.  The result
 * digest of the composed run equals runNetworkExperiment()'s for the
 * same config (checked with --reference=1).
 *
 * Usage: perfbench_driver --workload=NAME --seed=N --trace=0|1
 *                         [--smoke=1] [--shards=N] [--reference=1]
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/cli.hh"
#include "base/logging.hh"
#include "fault/injector.hh"
#include "harness/network_experiment.hh"
#include "harness/single_router.hh"
#include "network/interface.hh"
#include "obs/flight_recorder.hh"
#include "sim/invariant.hh"
#include "sim/kernel.hh"

namespace
{

using namespace mmr;
using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** A "Vm...:" line of /proc/self/status, in bytes (0 if absent). */
std::uint64_t
procStatusBytes(const char *key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t n = std::strlen(key);
    while (std::getline(in, line)) {
        if (line.compare(0, n, key) == 0)
            return std::strtoull(line.c_str() + n, nullptr, 10) * 1024;
    }
    return 0;
}

std::uint64_t residentBytes() { return procStatusBytes("VmRSS:"); }
std::uint64_t peakResidentBytes() { return procStatusBytes("VmHWM:"); }

/** Resident-set change since @p before (negative if pages were freed). */
double
rssGrowth(std::uint64_t before)
{
    return static_cast<double>(residentBytes()) -
           static_cast<double>(before);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Everything one repetition reports. */
struct Report
{
    std::uint64_t digest = 0;
    std::uint64_t referenceDigest = 0; ///< 0 unless --reference=1
    unsigned routers = 0;
    Cycle cycles = 0;
    double setupSeconds = 0.0; ///< entry to the first stepped cycle
    double stepSeconds = 0.0;  ///< warm-up + measure + drain
    std::uint64_t peakGrowthBytes = 0; ///< VmHWM minus VmRSS at entry
    /** Simulated counters: identical in traced and untraced runs. */
    std::map<std::string, double> counts;
    /** Host-side layer measurements; traced runs only, except the
     * setup phases and their memory, which every run times. */
    std::map<std::string, double> layers;
};

/** Host-time percentiles of the per-cycle samples, in microseconds. */
void
addCycleSamples(Report &rep, std::vector<double> &cycle_s)
{
    rep.layers["step.cycle_samples"] = static_cast<double>(cycle_s.size());
    if (cycle_s.empty())
        return;
    auto pct = [&](double p) {
        const std::size_t k = static_cast<std::size_t>(
            p * static_cast<double>(cycle_s.size() - 1));
        std::nth_element(cycle_s.begin(), cycle_s.begin() + k,
                         cycle_s.end());
        return cycle_s[k] * 1e6;
    };
    rep.layers["step.cycle_us_p50"] = pct(0.50);
    rep.layers["step.cycle_us_p99"] = pct(0.99);
}

/** Sum the per-router scheduling counters over @p routers. */
void
addRouterCounts(Report &rep, const std::vector<MmrRouter *> &routers)
{
    double forwarded = 0, match_sum = 0, match_slots = 0;
    double hits = 0, misses = 0, rebuilds = 0, refreshes = 0;
    for (MmrRouter *rt : routers) {
        const unsigned ports = rt->config().numPorts;
        forwarded += static_cast<double>(rt->flitsForwarded());
        match_sum += rt->matchingSize().sum();
        match_slots +=
            static_cast<double>(rt->matchingSize().count()) * ports;
        hits += static_cast<double>(rt->bypassHits());
        misses += static_cast<double>(rt->bypassMisses());
        for (PortId p = 0; p < ports; ++p) {
            rebuilds += static_cast<double>(
                rt->linkScheduler(p).maskFullRebuilds());
            refreshes += static_cast<double>(
                rt->linkScheduler(p).maskIncrementalRefreshes());
        }
    }
    rep.counts["router.flits_forwarded"] = forwarded;
    rep.counts["router.matching_fill"] = ratio(match_sum, match_slots);
    rep.counts["router.bypass_hit_ratio"] = ratio(hits, hits + misses);
    rep.counts["router.mask_full_rebuilds"] = rebuilds;
    rep.counts["router.mask_incremental_refreshes"] = refreshes;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** router_fig4: the paper's Fig 4 point (§5): one 8x8 router, 256
 * VCs/port, biased priority with 8 candidates, 70% CBR load. */
ExperimentConfig
routerFig4(std::uint64_t seed, bool smoke)
{
    ExperimentConfig c;
    c.router.scheduler = SchedulerKind::BiasedPriority;
    c.router.candidates = 8;
    c.offeredLoad = 0.70;
    c.warmupCycles = smoke ? 2000 : 20000;
    c.measureCycles = smoke ? 10000 : 100000;
    c.seed = seed;
    return c;
}

/** net_min_loaded: a 1280-router radix-4 5-stage MIN, four 55 Mb/s
 * CBR streams and one 2 Mb/s best-effort flow per host, 2 shards. */
NetworkExperimentConfig
netMinLoaded(std::uint64_t seed, bool smoke)
{
    NetworkExperimentConfig c;
    c.topologySpec = smoke ? "min:4:3" : "min:4:5";
    c.seed = seed;
    c.net.shards = 2;
    c.net.router.vcsPerPort = 8;
    c.net.router.candidates = 4;
    c.cbrStreamsPerHost = 4;
    c.cbrRateBps = 55 * kMbps;
    c.beFlowsPerHost = 1;
    c.beRateBps = 2 * kMbps;
    c.warmupCycles = smoke ? 100 : 300;
    c.measureCycles = smoke ? 400 : 900;
    c.drainCycles = smoke ? 50 : 100;
    return c;
}

/** churn_mesh_faulted: session churn on an 8x8 mesh under link
 * failures and probe drops, serial, no static streams. */
NetworkExperimentConfig
churnMeshFaulted(std::uint64_t seed, bool smoke)
{
    NetworkExperimentConfig c;
    c.topologySpec = "mesh:8x8";
    c.seed = seed;
    c.net.shards = 1;
    c.net.router.vcsPerPort = 32;
    c.net.router.candidates = 8;
    c.cbrStreamsPerHost = 0;
    c.beFlowsPerHost = 0;
    c.warmupCycles = 1000;
    c.measureCycles = smoke ? 4000 : 20000;
    // Outlasts the 1200-cycle mean repair so teardowns land.
    c.drainCycles = 4000;
    c.faults = parseFaultModel("fail=0.4,repair=1200,drop=0.02");
    c.churn.enabled = true;
    c.churn.maxLiveSessions = 1024;
    c.churn.workload.arrivalsPer1k = 1000;
    c.churn.workload.holdingMeanCycles = 300;
    return c;
}

// ---------------------------------------------------------------------
// Single router
// ---------------------------------------------------------------------

Report
runRouter(const ExperimentConfig &base, bool traced)
{
    ExperimentConfig cfg = base;
    cfg.obs.profileComponents = traced;
    Report rep;
    rep.routers = 1;

    const auto entry = Clock::now();
    SingleRouterExperiment exp(cfg);
    // Per-cycle host time: the auditor ticks once per cycle after the
    // router, so consecutive stamps bracket exactly one cycle.
    std::vector<Clock::time_point> stamps;
    if (traced) {
        stamps.reserve(cfg.warmupCycles + cfg.measureCycles);
        exp.invariants().add("perfbench.cycle-clock", [&stamps](Cycle) {
            stamps.push_back(Clock::now());
        });
    }
    const ExperimentResult r = exp.run();
    const double harness_wall = seconds(entry, Clock::now());
    rep.peakGrowthBytes = peakResidentBytes();

    rep.digest = resultDigest(r);
    rep.cycles = r.profile.cycles;
    rep.stepSeconds = r.profile.wallSeconds;
    // The harness builds its workload inside run(): set-up is the
    // harness wall minus the stepping wall it measured itself.
    rep.setupSeconds = harness_wall - r.profile.wallSeconds;
    rep.layers["setup.workload_build_s"] = rep.setupSeconds;

    addRouterCounts(rep, {&exp.router()});
    rep.counts["invariants.checks_run"] = static_cast<double>(
        exp.invariants().checksRun() - stamps.size());

    if (traced) {
        double attributed = 0.0;
        for (const auto &[name, sec] : r.profile.componentSeconds) {
            if (name == "router")
                rep.layers["router.step_s"] = sec;
            else if (name == "invariants")
                rep.layers["invariants.check_s"] = sec;
            else
                mmr_fatal("unexpected kernel component '", name, "'");
            attributed += sec;
        }
        rep.layers["kernel.other_s"] = rep.stepSeconds - attributed;
        std::vector<double> cycle_s;
        for (std::size_t i = 1; i < stamps.size(); ++i)
            cycle_s.push_back(seconds(stamps[i - 1], stamps[i]));
        addCycleSamples(rep, cycle_s);
    }
    return rep;
}

// ---------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------

/** Times one kernel component's evaluate and advance phases. */
class TimedClocked final : public Clocked
{
  public:
    explicit TimedClocked(Clocked &component) : inner(component) {}

    void
    evaluate(Cycle now) override
    {
        const auto t0 = Clock::now();
        inner.evaluate(now);
        evaluateSeconds += seconds(t0, Clock::now());
    }

    void
    advance(Cycle now) override
    {
        const auto t0 = Clock::now();
        inner.advance(now);
        advanceSeconds += seconds(t0, Clock::now());
    }

    double total() const { return evaluateSeconds + advanceSeconds; }

    double evaluateSeconds = 0.0;
    double advanceSeconds = 0.0;

  private:
    Clocked &inner;
};

/** runNetworkExperiment()'s stream destination rule. */
NodeId
dstFor(NodeId n, unsigned k, unsigned nodes)
{
    NodeId d = (n + 1 + 2 * k) % nodes;
    if (d == n)
        d = (d + 1) % nodes;
    return d;
}

/**
 * runNetworkExperiment(), step for step, with set-up laps and (when
 * @p traced) per-layer timing of the stepping loop.  Any divergence
 * from the library's runner shows up as a digest mismatch.
 */
Report
runNetwork(const NetworkExperimentConfig &cfg, bool traced)
{
    Report rep;
    const auto entry = Clock::now();
    auto lap_from = entry;
    auto lap = [&](const char *layer) {
        const auto t = Clock::now();
        rep.layers[layer] += seconds(lap_from, t);
        lap_from = t;
    };

    Topology topo = topologyFromSpec(cfg.topologySpec, cfg.seed);
    lap("setup.topology_s");
    const unsigned nodes = topo.numNodes();
    rep.routers = nodes;

    const std::uint64_t rss_before_net = residentBytes();
    NetworkConfig ncfg = cfg.net;
    ncfg.seed = cfg.seed;
    Network net(std::move(topo), ncfg);
    net.endToEnd().setQosBudget(TrafficClass::CBR,
                                cfg.cbrDelayBudgetCycles);
    lap("setup.network_ctor_s");
    rep.layers["mem.network_ctor_bytes"] = rssGrowth(rss_before_net) / nodes;

    FlightRecorder blackBox;
    blackBox.activate();

    FaultModel model = cfg.faults;
    if (model.horizon == 0)
        model.horizon = cfg.warmupCycles + cfg.measureCycles;
    FaultPlan plan = FaultPlan::random(net.topology(), model,
                                       cfg.seed ^ 0xfa17a11edfa57ULL);
    FaultInjector injector(net, std::move(plan), cfg.seed + 101);
    RecoveryManager recovery(net, cfg.recovery, cfg.seed + 202);
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

    TimedClocked t_injector(injector), t_recovery(recovery), t_net(net),
        t_checker(checker);
    Kernel kernel;
    kernel.registerInvariants(checker);
    kernel.add(traced ? static_cast<Clocked *>(&t_injector) : &injector,
               "fault-injector");
    kernel.add(traced ? static_cast<Clocked *>(&t_recovery) : &recovery,
               "recovery-manager");
    kernel.add(traced ? static_cast<Clocked *>(&t_net) : &net, "network");
    kernel.add(traced ? static_cast<Clocked *>(&t_checker) : &checker,
               "invariants");
    lap("setup.other_s");

    NetworkExperimentResult r;
    r.nodes = nodes;
    const std::uint64_t rss_before_hosts = residentBytes();
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
    lap("setup.stream_open_s");
    rep.layers["mem.stream_open_bytes"] = rssGrowth(rss_before_hosts) / nodes;

    const Cycle total =
        cfg.warmupCycles + cfg.measureCycles + cfg.drainCycles;
    double hosts_s = 0.0, churn_s = 0.0;
    std::size_t inflight_peak = 0;
    std::vector<double> cycle_s;
    if (traced)
        cycle_s.reserve(total);

    auto run_for = [&](Cycle cycles) {
        for (Cycle c = 0; c < cycles; ++c) {
            if (!traced) {
                for (auto &h : hosts)
                    h->tick(kernel.now());
                if (churn)
                    churn->tick(kernel.now());
                kernel.step();
                continue;
            }
            const auto t0 = Clock::now();
            for (auto &h : hosts)
                h->tick(kernel.now());
            const auto t1 = Clock::now();
            hosts_s += seconds(t0, t1);
            if (churn) {
                churn->tick(kernel.now());
                churn_s += seconds(t1, Clock::now());
            }
            kernel.step();
            inflight_peak =
                std::max(inflight_peak, net.probes().inFlight());
            cycle_s.push_back(seconds(t0, Clock::now()));
        }
    };

    const auto step_start = Clock::now();
    rep.setupSeconds = seconds(entry, step_start);
    run_for(cfg.warmupCycles);
    net.endToEnd().startMeasurement(kernel.now());
    run_for(cfg.measureCycles);
    if (churn)
        churn->beginDrain(kernel.now());
    run_for(cfg.drainCycles);
    rep.stepSeconds = seconds(step_start, Clock::now());
    rep.peakGrowthBytes = peakResidentBytes();
    rep.cycles = kernel.now();

    // Harvest exactly as runNetworkExperiment() does.
    r.cycles = kernel.now();
    r.acceptance = ratio(r.streamsAccepted, r.streamsRequested);
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
    r.aliveFraction = ratio(r.streamsAlive, r.streamsAccepted);
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
    rep.digest = networkResultDigest(r);

    std::vector<MmrRouter *> routers;
    for (NodeId n = 0; n < nodes; ++n)
        routers.push_back(&net.routerAt(n));
    addRouterCounts(rep, routers);
    rep.counts["network.flits_delivered"] =
        static_cast<double>(r.flitsDelivered);
    rep.counts["network.inject_rejects"] =
        static_cast<double>(net.injectRejects());
    rep.counts["network.datagrams_delivered_ratio"] =
        ratio(r.datagramsDelivered, r.datagramsSent);
    rep.counts["setup.accept_ratio"] = r.acceptance;
    rep.counts["churn.acceptance"] = r.sessionAcceptance;
    rep.counts["churn.peak_live"] = static_cast<double>(r.sessionPeakLive);
    rep.counts["churn.decided_setups"] = static_cast<double>(
        r.sessionsAdmitted + r.sessionsRejected - r.sessionsRejectedBusy);
    rep.counts["probe.timeouts"] = static_cast<double>(r.probeTimeouts);
    rep.counts["probe.messages_lost"] =
        static_cast<double>(r.probeMessagesLost);
    rep.counts["fault.connections_failed"] =
        static_cast<double>(r.connectionsFailed);
    rep.counts["invariants.checks_run"] =
        static_cast<double>(r.invariantChecks);

    if (traced) {
        rep.layers["hosts.tick_s"] = hosts_s;
        rep.layers["churn.tick_s"] = churn_s;
        rep.layers["network.evaluate_s"] = t_net.evaluateSeconds;
        rep.layers["network.advance_s"] = t_net.advanceSeconds;
        rep.layers["invariants.check_s"] = t_checker.total();
        rep.layers["fault.injector_s"] = t_injector.total();
        rep.layers["fault.recovery_s"] = t_recovery.total();
        rep.layers["kernel.other_s"] =
            rep.stepSeconds - hosts_s - churn_s - t_net.total() -
            t_checker.total() - t_injector.total() - t_recovery.total();
        rep.layers["probe.inflight_peak"] =
            static_cast<double>(inflight_peak);
        addCycleSamples(rep, cycle_s);
    }
    blackBox.deactivate();
    return rep;
}

void
printJson(const Report &rep, const std::string &workload,
          std::uint64_t seed, bool traced)
{
    auto print_map = [](const char *key,
                        const std::map<std::string, double> &m) {
        std::printf(",\"%s\":{", key);
        const char *sep = "";
        for (const auto &[name, v] : m) {
            std::printf("%s\"%s\":%.17g", sep, name.c_str(), v);
            sep = ",";
        }
        std::printf("}");
    };
    std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
                ",\"traced\":%d,\"digest\":\"%016" PRIx64
                "\",\"reference_digest\":\"%016" PRIx64
                "\",\"routers\":%u,\"cycles\":%" PRIu64
                ",\"setup_s\":%.17g,\"step_s\":%.17g"
                ",\"peak_growth_bytes\":%" PRIu64,
                workload.c_str(), seed, traced ? 1 : 0, rep.digest,
                rep.referenceDigest, rep.routers,
                static_cast<std::uint64_t>(rep.cycles), rep.setupSeconds,
                rep.stepSeconds, rep.peakGrowthBytes);
    print_map("counts", rep.counts);
    print_map("layers", rep.layers);
    std::printf("}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mmr;
    // Resident set before any simulator state exists: the baseline
    // bytes_per_router is measured from.
    const std::uint64_t rss_at_entry = residentBytes();
    try {
        Cli cli;
        cli.flag("workload", "", "router_fig4|net_min_loaded|"
                                 "churn_mesh_faulted");
        cli.flag("seed", "42", "workload seed");
        cli.flag("trace", "0", "1 = per-layer timing");
        cli.flag("smoke", "0", "1 = small self-test size");
        cli.flag("shards", "0", "override the workload's shard count");
        cli.flag("reference", "0",
                 "1 = also run the library's own runner and report its "
                 "digest");
        if (!cli.parse(argc, argv))
            return 1;
        const std::string workload = cli.str("workload");
        const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
        const bool traced = cli.boolean("trace");
        const bool smoke = cli.boolean("smoke");
        const auto shards = static_cast<unsigned>(cli.integer("shards"));

        Report rep;
        if (workload == "router_fig4") {
            const ExperimentConfig cfg = routerFig4(seed, smoke);
            rep = runRouter(cfg, traced);
            if (cli.boolean("reference"))
                rep.referenceDigest = resultDigest(runSingleRouter(cfg));
        } else if (workload == "net_min_loaded" ||
                   workload == "churn_mesh_faulted") {
            NetworkExperimentConfig cfg =
                workload == "net_min_loaded"
                    ? netMinLoaded(seed, smoke)
                    : churnMeshFaulted(seed, smoke);
            if (shards != 0)
                cfg.net.shards = shards;
            rep = runNetwork(cfg, traced);
            if (cli.boolean("reference"))
                rep.referenceDigest =
                    networkResultDigest(runNetworkExperiment(cfg));
        } else {
            mmr_fatal("unknown --workload '", workload, "'");
        }
        rep.peakGrowthBytes -= std::min(rep.peakGrowthBytes, rss_at_entry);
        printJson(rep, workload, seed, traced);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
