/**
 * @file
 * End-to-end tests of the observability session through the §5
 * experiment harness: the sampler/registry outputs must reproduce the
 * MetricsRecorder aggregates, same-seed runs must produce bit-identical
 * trace/stats files, and per-run output paths must not collide.  Also
 * the CLI front door: obsConfigFromCli's defaults, window and
 * user-error handling.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/cli.hh"
#include "harness/single_router.hh"
#include "obs/obs_config.hh"

namespace mmr
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing output file " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.router.numPorts = 4;
    cfg.router.vcsPerPort = 32;
    cfg.offeredLoad = 0.6;
    cfg.warmupCycles = 2000;
    cfg.measureCycles = 4000;
    cfg.seed = 7;
    return cfg;
}

TEST(ObsSession, StatsFileReproducesRecorderAggregates)
{
    const std::string dir = ::testing::TempDir();
    ExperimentConfig cfg = smallConfig();
    cfg.obs.statsJsonPath = dir + "obs_xcheck.json";
    cfg.obs.samplePeriod = 500;

    const ExperimentResult r = runSingleRouter(cfg);
    const std::string s = slurp(cfg.obs.statsJsonPath);

    // The harness registers its recorder aggregates as gauges; the
    // final registry dump must agree exactly with the returned result.
    const std::string flits =
        "\"harness.measured_flits\": {\"kind\": \"gauge\", \"value\": " +
        obs::formatNumber(static_cast<double>(r.flitsDelivered)) + "}";
    EXPECT_NE(s.find(flits), std::string::npos)
        << "wanted: " << flits << "\nin:\n" << s.substr(0, 2000);

    const std::string delay =
        "\"harness.mean_delay_cycles\": {\"kind\": \"gauge\", "
        "\"value\": " +
        obs::formatNumber(r.meanDelayCycles) + "}";
    EXPECT_NE(s.find(delay), std::string::npos) << "wanted: " << delay;

    // The sampled series rides in the same file.
    EXPECT_NE(s.find("\"period\": 500"), std::string::npos);
    EXPECT_NE(s.find("router0.flits.injected"), std::string::npos);
}

TEST(ObsSession, TraceCoversTheFlitLifecycle)
{
    const std::string dir = ::testing::TempDir();
    ExperimentConfig cfg = smallConfig();
    cfg.obs.tracePath = dir + "obs_lifecycle.json";

    runSingleRouter(cfg);
    const std::string s = slurp(cfg.obs.tracePath);

    // ISSUE acceptance: flit lifecycle + scheduler grants + admission
    // decisions all present in one Perfetto-loadable file.
    for (const char *name : {"\"name\": \"inject\"",
                             "\"name\": \"vc_alloc\"",
                             "\"name\": \"grant\"",
                             "\"name\": \"xmit\"",
                             "\"name\": \"admit_cbr\"",
                             "\"name\": \"sched.matching_size\""})
        EXPECT_NE(s.find(name), std::string::npos) << name;
    EXPECT_NE(s.find("\"traceEvents\": ["), std::string::npos);
}

TEST(ObsSession, CategoryFilterNarrowsTheTrace)
{
    const std::string dir = ::testing::TempDir();
    ExperimentConfig cfg = smallConfig();
    cfg.obs.tracePath = dir + "obs_filtered.json";
    cfg.obs.traceCats = "admission,setup";

    runSingleRouter(cfg);
    const std::string s = slurp(cfg.obs.tracePath);
    EXPECT_NE(s.find("\"name\": \"admit_cbr\""), std::string::npos);
    EXPECT_NE(s.find("\"name\": \"vc_alloc\""), std::string::npos);
    EXPECT_EQ(s.find("\"name\": \"inject\""), std::string::npos)
        << "flit events must be filtered out";
    EXPECT_EQ(s.find("\"name\": \"grant\""), std::string::npos);
}

TEST(ObsSession, TraceWindowBoundsEveryEvent)
{
    // The trace drain copies the ring out across many wraps; only the
    // window may survive, and the hot grant stream must be in it.
    const std::string dir = ::testing::TempDir();
    ExperimentConfig cfg = smallConfig();
    cfg.obs.tracePath = dir + "obs_window.json";
    cfg.obs.traceFrom = 2500;
    cfg.obs.traceTo = 3000;

    runSingleRouter(cfg);
    const std::string s = slurp(cfg.obs.tracePath);
    EXPECT_NE(s.find("\"name\": \"grant\""), std::string::npos);
    std::size_t events = 0;
    for (std::size_t at = s.find("\"ts\": "); at != std::string::npos;
         at = s.find("\"ts\": ", at + 1)) {
        const Cycle ts = std::stoull(s.substr(at + 6));
        EXPECT_GE(ts, 2500u);
        EXPECT_LE(ts, 3000u);
        ++events;
    }
    EXPECT_GT(events, 500u) << "window holds too few events";
}

TEST(ObsSession, SameSeedRunsProduceBitIdenticalFiles)
{
    const std::string dir = ::testing::TempDir();

    ExperimentConfig a = smallConfig();
    a.obs.tracePath = dir + "obs_det_a.trace.json";
    a.obs.statsJsonPath = dir + "obs_det_a.stats.json";
    a.obs.samplePeriod = 500;
    runSingleRouter(a);

    ExperimentConfig b = smallConfig();
    b.obs.tracePath = dir + "obs_det_b.trace.json";
    b.obs.statsJsonPath = dir + "obs_det_b.stats.json";
    b.obs.samplePeriod = 500;
    runSingleRouter(b);

    EXPECT_EQ(slurp(a.obs.tracePath), slurp(b.obs.tracePath))
        << "trace files must be byte-identical for same-seed runs";
    EXPECT_EQ(slurp(a.obs.statsJsonPath), slurp(b.obs.statsJsonPath))
        << "stats files must be byte-identical for same-seed runs";
}

TEST(ObsSession, ResultCarriesThroughputProfile)
{
    ExperimentConfig cfg = smallConfig();
    const ExperimentResult r = runSingleRouter(cfg);
    EXPECT_GT(r.profile.cycles, 0u);
    EXPECT_GT(r.profile.events, 0u);
    EXPECT_GT(r.profile.wallSeconds, 0.0);
    EXPECT_GT(r.profile.cyclesPerSec(), 0.0);
    EXPECT_TRUE(r.profile.componentSeconds.empty())
        << "attribution stays off unless obs.profileComponents";
}

TEST(ObsSession, ComponentProfilingAttributesTime)
{
    ExperimentConfig cfg = smallConfig();
    cfg.obs.profileComponents = true;
    const ExperimentResult r = runSingleRouter(cfg);
    ASSERT_FALSE(r.profile.componentSeconds.empty());
    bool sawRouter = false;
    for (const auto &[name, secs] : r.profile.componentSeconds)
        sawRouter = sawRouter || name == "router";
    EXPECT_TRUE(sawRouter) << "the router must appear in attribution";
}

/** obsConfigFromCli over "prog" + @p args (flags from addObsFlags). */
ObsConfig
configFromArgs(std::vector<const char *> args)
{
    Cli cli;
    addObsFlags(cli);
    args.insert(args.begin(), "prog");
    EXPECT_TRUE(cli.parse(static_cast<int>(args.size()),
                          const_cast<char **>(args.data())));
    return obsConfigFromCli(cli);
}

TEST(ObsConfig, CliDefaultsLeaveOnlyTheForensicRecorder)
{
    const ObsConfig c = configFromArgs({});
    EXPECT_FALSE(c.enabled());
    EXPECT_TRUE(c.tracePath.empty());
    EXPECT_TRUE(c.flightRecorderPath.empty());
    EXPECT_EQ(c.traceFrom, 0u);
    EXPECT_EQ(c.traceTo, std::numeric_limits<Cycle>::max());
    EXPECT_EQ(c.categoryMask(),
              traceCatMaskFromString("sched,admission,setup,control,"
                                     "fault"));
}

TEST(ObsConfig, CliTraceWindowAndCategories)
{
    const ObsConfig w = configFromArgs(
        {"--trace=t.json", "--trace-from=500", "--trace-to=600"});
    EXPECT_EQ(w.traceFrom, 500u);
    EXPECT_EQ(w.traceTo, 600u);
    EXPECT_EQ(w.categoryMask(), kAllTraceCats)
        << "--trace without --trace-cats records every category";

    const ObsConfig open = configFromArgs({"--trace-from=500"});
    EXPECT_EQ(open.traceTo, std::numeric_limits<Cycle>::max())
        << "--trace-to=0 leaves the window open-ended";

    const ObsConfig cats =
        configFromArgs({"--trace=t.json", "--trace-cats=fault,sched"});
    EXPECT_EQ(cats.categoryMask(),
              traceCatMaskFromString("sched,fault"));
    EXPECT_EQ(configFromArgs({"--trace-cats=all"}).categoryMask(),
              kAllTraceCats);
}

TEST(ObsConfig, CliUnknownCategoryThrows)
{
    EXPECT_THROW(configFromArgs({"--trace-cats=flit,shced"}),
                 std::runtime_error);
}

TEST(ObsConfig, CliInvertedWindowThrowsWithoutADump)
{
    // A typo is a user error (mmr_fatal), not an internal bug: it must
    // not go through the panic hook and leave a bogus crash dump.
    const std::string dump =
        ::testing::TempDir() + "obs_inverted_window_dump.json";
    std::remove(dump.c_str());
    FlightRecorder fr;
    fr.setDumpPath(dump);
    fr.activate();
    EXPECT_THROW(configFromArgs({"--trace=t.json", "--trace-from=500",
                                 "--trace-to=100"}),
                 std::runtime_error);
    fr.deactivate();
    EXPECT_FALSE(std::ifstream(dump).good())
        << "an inverted window wrote a crash dump";
}

TEST(ObsPath, SuffixInsertsBeforeTheExtension)
{
    EXPECT_EQ(obsPathWithSuffix("out/trace.json", "biased_2c-0.70"),
              "out/trace-biased_2c-0.70.json");
    EXPECT_EQ(obsPathWithSuffix("trace", "x"), "trace-x");
    EXPECT_EQ(obsPathWithSuffix("a.b/trace", "x"), "a.b/trace-x")
        << "a dot in a directory name is not an extension";
    EXPECT_EQ(obsPathWithSuffix("", "x"), "");
    EXPECT_EQ(obsPathWithSuffix("trace.json", ""), "trace.json");
}

} // namespace
} // namespace mmr
