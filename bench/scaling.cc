/**
 * @file
 * Network-scale bench: one big run across many routers and shards.
 *
 * Charts cycles/s and resident bytes-per-router versus router count
 * for the large-topology generators (multistage MIN, fat-tree,
 * leaf-spine) at several intra-run shard counts — the scaling story
 * the shard-parallel network core exists to tell.  `--routers=N`
 * picks the smallest instance of the chosen generator with at least N
 * routers (the exact node count is reported).
 *
 * Two shape checks gate the run:
 *  - the networkResultDigest of every (topology, shard-count) cell is
 *    identical to the serial (--shards=1) digest — the determinism
 *    contract of DESIGN.md §12;
 *  - the biggest instance really is >= the requested router count.
 *
 * On a single-core host the shard speedup column is annotated as
 * unmeasurable (the workers time-slice one core); the absolute
 * cycles/s and bytes-per-router columns remain meaningful.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "harness/network_experiment.hh"

namespace
{

using namespace mmr;

/** Resident set size, bytes (0 when /proc is unavailable). */
std::uint64_t
rssBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
    return 0;
}

/**
 * Smallest instance of @p kind with at least @p routers nodes.
 * Returns the spec string and reports the node count via @p nodes.
 */
std::string
specForRouters(const std::string &kind, unsigned routers,
               unsigned &nodes)
{
    if (kind == "min") {
        // radix-4 butterfly: stages * 4^(stages-1) nodes.
        for (unsigned stages = 2;; ++stages) {
            unsigned width = 1;
            for (unsigned i = 1; i < stages; ++i)
                width *= 4;
            if (stages * width >= routers) {
                nodes = stages * width;
                return "min:4:" + std::to_string(stages);
            }
        }
    }
    if (kind == "fattree") {
        // k^2 pod switches + (k/2)^2 cores.
        for (unsigned k = 4;; k += 2) {
            const unsigned n = k * k + (k / 2) * (k / 2);
            if (n >= routers) {
                nodes = n;
                return "fattree:" + std::to_string(k);
            }
        }
    }
    if (kind == "leafspine") {
        // Fixed 16 spines; leaves make up the rest.
        const unsigned spines = 16;
        const unsigned leaves =
            routers > spines ? routers - spines : 1;
        nodes = spines + leaves;
        return "leafspine:" + std::to_string(spines) + ":" +
               std::to_string(leaves);
    }
    mmr_fatal("unknown --topo-kind '", kind,
              "' (min/fattree/leafspine)");
}

NetworkExperimentConfig
scalingConfig(const std::string &spec, std::uint64_t seed,
              unsigned shards, Cycle warmup, Cycle measure)
{
    NetworkExperimentConfig c;
    c.topologySpec = spec;
    c.seed = seed;
    c.net.shards = shards;
    // Lean per-router footprint so thousands of routers fit: the
    // bench measures throughput scaling, not buffer capacity.
    c.net.router.vcsPerPort = 8;
    c.net.router.candidates = 4;
    c.cbrStreamsPerHost = 1;
    c.cbrRateBps = 10 * kMbps;
    c.beFlowsPerHost = 0;
    c.warmupCycles = warmup;
    c.measureCycles = measure;
    c.drainCycles = warmup / 2;
    return c;
}

struct Cell
{
    unsigned shards;
    double cyclesPerSec;
    std::uint64_t digest;
    std::uint64_t rssAfter;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace mmr::bench;
    return guardedMain([&] {
        Cli cli;
        cli.flag("routers", "1024",
                 "minimum router count (the generator rounds up)");
        cli.flag("topo-kind", "min",
                 "generator family: min, fattree, leafspine");
        cli.flag("shards", "1,2,4,8", "shard counts to chart");
        cli.flag("seed", "42", "experiment seed");
        cli.flag("warmup", "200", "warm-up flit cycles");
        cli.flag("measure", "6000", "measured flit cycles");
        cli.flag("smoke", "0",
                 "smoke mode: 256-router run asserting digest "
                 "equality only (CI scaling-smoke job)");
        if (!cli.parse(argc, argv))
            return 0;

        const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
        const auto warmup = static_cast<Cycle>(cli.integer("warmup"));
        const auto measure = static_cast<Cycle>(cli.integer("measure"));
        const bool smoke = cli.integer("smoke") != 0;
        const unsigned routers = smoke
            ? 256
            : static_cast<unsigned>(cli.integer("routers"));
        std::vector<unsigned> shardCounts;
        for (const auto &p : cli.list("shards"))
            shardCounts.push_back(
                static_cast<unsigned>(std::stoul(p)));

        unsigned nodes = 0;
        const std::string spec =
            specForRouters(cli.str("topo-kind"), routers, nodes);

        const unsigned cores = std::thread::hardware_concurrency();
        std::printf("Scaling: %s (%u routers, requested >= %u), "
                    "shards {", spec.c_str(), nodes, routers);
        for (std::size_t i = 0; i < shardCounts.size(); ++i)
            std::printf("%s%u", i ? "," : "", shardCounts[i]);
        std::printf("}, host cores %u\n", cores);
        if (cores <= 1)
            std::printf("NOTE: single-core host — shard speedups are "
                        "unmeasurable here (workers time-slice one "
                        "core); absolute cycles/s and bytes/router "
                        "remain valid.\n");

        std::vector<Cell> cells;
        for (unsigned shards : shardCounts) {
            const auto cfg =
                scalingConfig(spec, seed, shards, warmup, measure);
            const auto t0 = std::chrono::steady_clock::now();
            const auto r = runNetworkExperiment(cfg);
            const auto t1 = std::chrono::steady_clock::now();
            const double secs =
                std::chrono::duration<double>(t1 - t0).count();
            Cell c;
            c.shards = shards;
            c.cyclesPerSec =
                secs > 0 ? static_cast<double>(r.cycles) / secs : 0.0;
            c.digest = networkResultDigest(r);
            c.rssAfter = rssBytes();
            cells.push_back(c);
            std::printf("  shards=%u: %.0f cycles/s, digest %016llx\n",
                        shards, c.cyclesPerSec,
                        static_cast<unsigned long long>(c.digest));
        }

        Table t({"shards", "cycles_per_sec", "speedup_vs_serial",
                 "bytes_per_router", "digest"});
        const double serial = cells.front().cyclesPerSec;
        for (const Cell &c : cells) {
            char digest[20];
            std::snprintf(digest, sizeof(digest), "%016llx",
                          static_cast<unsigned long long>(c.digest));
            const double speedup =
                serial > 0 ? c.cyclesPerSec / serial : 0.0;
            t.addRow({std::to_string(c.shards),
                      Table::num(c.cyclesPerSec, 0),
                      cores <= 1 ? "n/a(1-core)"
                                 : Table::num(speedup, 2),
                      std::to_string(c.rssAfter / nodes), digest});
        }
        t.print(std::cout);
        t.printCsv(std::cout, "scaling");
        t.printJson(std::cout, "scaling");

        int failures = 0;
        auto check = [&](bool ok, const char *what) {
            std::printf("shape check: %-58s %s\n", what,
                        ok ? "PASS" : "FAIL");
            if (!ok)
                ++failures;
        };
        check(nodes >= routers,
              "generator reached the requested router count");
        bool digests_equal = true;
        for (const Cell &c : cells)
            digests_equal &= c.digest == cells.front().digest;
        check(digests_equal,
              "digest identical across every shard count");
        return failures == 0 ? 0 : 1;
    });
}
