/**
 * @file
 * Seeded corpus loops over the user-facing spec parsers (session mix,
 * rates, flash crowd, diurnal curve, fault model, fault events,
 * topology): every
 * input either parses to finite, in-range values or is rejected with
 * std::runtime_error (mmr_fatal) — never an abort, never undefined
 * behavior.  The sanitizer CI jobs run these loops too.  Also checks
 * that a churn mix no link can carry is a user error, not a panic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"
#include "harness/network_experiment.hh"
#include "obs/flight_recorder.hh"
#include "workload/churn.hh"
#include "workload/generator.hh"

namespace mmr
{
namespace
{

/** Number-ish fragments: valid, malformed, non-finite, negative and
 * beyond what a Cycle or a NodeId holds. */
const std::vector<std::string> kNumbers = {
    "",      "0",     "1",      "2.5",    "0.99",  "-5",   "-0",
    "1e3",   "1e19",  "1e20",   "1e400",  "-1e400", "nan", "NaN",
    "inf",   "-inf",  "2x",     " 3",     "3 ",    "0x10", "1e-400",
    "64k",   "1.54m", "2g",     "k",      "5e",    ".",    "+7",
    "15",    "16",    "4294967297", "999999999999999999999"};

/**
 * Run @p parse over @p count specs drawn by @p make; a spec either
 * parses (and @p check validates the result) or throws
 * std::runtime_error.  Both outcomes must occur.
 */
void
corpus(const char *name, unsigned count,
       const std::function<std::string(Rng &)> &make,
       const std::function<void(const std::string &)> &parse_and_check)
{
    Rng rng(0xc0ffee ^ std::hash<std::string>{}(name));
    unsigned parsed = 0, rejected = 0;
    for (unsigned i = 0; i < count; ++i) {
        const std::string spec = make(rng);
        try {
            parse_and_check(spec);
            ++parsed;
        } catch (const std::runtime_error &) {
            ++rejected;
        }
    }
    EXPECT_GT(parsed, 0u) << name << ": the corpus never parses";
    EXPECT_GT(rejected, 0u) << name << ": the corpus never fails";
}

/** "k=v,k=v" from random keys and number fragments. */
std::string
keyValues(Rng &rng, const std::vector<std::string> &keys)
{
    std::string s;
    const auto entries = rng.below(4);
    for (std::uint64_t i = 0; i < entries; ++i) {
        if (i > 0)
            s += rng.chance(0.95) ? "," : ";";
        s += rng.pick(keys);
        if (rng.chance(0.95))
            s += "=";
        s += rng.pick(kNumbers);
    }
    return s;
}

TEST(SpecParserCorpus, RateBps)
{
    corpus(
        "rate", 2000,
        [](Rng &rng) {
            std::string s = rng.pick(kNumbers);
            if (rng.chance(0.5))
                s += rng.pick(std::vector<std::string>{"k", "M", "g",
                                                       "x", "kk"});
            return s;
        },
        [](const std::string &spec) {
            const double v = parseRateBps(spec);
            EXPECT_TRUE(std::isfinite(v) && v > 0.0) << spec;
        });
}

TEST(SpecParserCorpus, SessionMix)
{
    const std::vector<std::string> keys = {
        "64k", "1.54m", "vbr:5m", "vbr:", "2g", "vbr:nan", "0", "-64k",
        "inf", "", "10"};
    corpus(
        "mix", 2000, [&](Rng &rng) { return keyValues(rng, keys); },
        [](const std::string &spec) {
            const std::vector<MixEntry> mix = parseSessionMix(spec);
            EXPECT_FALSE(mix.empty()) << spec;
            double total = 0.0;
            for (const MixEntry &e : mix) {
                EXPECT_TRUE(std::isfinite(e.rateBps) && e.rateBps > 0.0)
                    << spec;
                EXPECT_TRUE(std::isfinite(e.weight) && e.weight > 0.0)
                    << spec;
                total += e.weight;
            }
            EXPECT_TRUE(std::isfinite(total)) << spec;
        });
}

TEST(SpecParserCorpus, FlashCrowd)
{
    const std::vector<std::string> keys = {"at", "ramp", "hold", "peak",
                                           "rampp", ""};
    corpus(
        "flash", 2000, [&](Rng &rng) { return keyValues(rng, keys); },
        [](const std::string &spec) {
            const FlashCrowd f = parseFlashCrowd(spec);
            EXPECT_TRUE(std::isfinite(f.peakFactor) && f.peakFactor >= 1.0)
                << spec;
        });
}

TEST(SpecParserCorpus, Diurnal)
{
    const std::vector<std::string> keys = {"period", "amp", "periodx"};
    corpus(
        "diurnal", 2000, [&](Rng &rng) { return keyValues(rng, keys); },
        [](const std::string &spec) {
            const DiurnalCurve d = parseDiurnal(spec);
            EXPECT_TRUE(d.amplitude >= 0.0 && d.amplitude < 1.0) << spec;
        });
}

TEST(SpecParserCorpus, FaultModel)
{
    const std::vector<std::string> keys = {
        "fail", "repair", "drop", "corrupt", "horizon", "partition",
        "bogus"};
    corpus(
        "faults", 2000, [&](Rng &rng) { return keyValues(rng, keys); },
        [](const std::string &spec) {
            const FaultModel m = parseFaultModel(spec);
            EXPECT_TRUE(std::isfinite(m.linkFailPer10k) &&
                        m.linkFailPer10k >= 0.0)
                << spec;
            EXPECT_TRUE(m.probeDropRate >= 0.0 && m.probeDropRate <= 1.0)
                << spec;
            EXPECT_TRUE(m.corruptRate >= 0.0 && m.corruptRate <= 1.0)
                << spec;
        });
}

TEST(SpecParserCorpus, FaultEventsRoundTrip)
{
    const Topology topo = Topology::mesh2d(4, 4);
    const std::vector<std::string> node = {"0", "1", "4", "15", "16",
                                           "-1", "1.5", "4294967297",
                                           "", "x"};
    corpus(
        "events", 2000,
        [&](Rng &rng) {
            std::string s;
            const auto events = rng.below(4);
            for (std::uint64_t i = 0; i < events; ++i) {
                if (i > 0)
                    s += ";";
                s += rng.pick(std::vector<std::string>{"down", "up",
                                                       "sideways"});
                s += "@" + rng.pick(kNumbers) + ":" + rng.pick(node) +
                     "-" + rng.pick(node);
            }
            return s;
        },
        [&](const std::string &spec) {
            const FaultPlan plan = FaultPlan::fromEvents(spec, topo);
            for (const FaultEvent &ev : plan.events())
                EXPECT_TRUE(ev.a < topo.numNodes() &&
                            ev.b < topo.numNodes() &&
                            topo.hasLink(ev.a, ev.b))
                    << spec;
            EXPECT_EQ(FaultPlan::fromEvents(plan.toSpec(), topo).toSpec(),
                      plan.toSpec())
                << spec;
        });
}

TEST(SpecParserCorpus, Topology)
{
    // Small sizes, so every spec that builds builds fast, plus
    // malformed numbers and sizes beyond the caps.
    const std::vector<std::string> sizes = {
        "",   "0",  "1",  "2",   "3",   "4",          "5",
        "6",  "-3", "+4", " 4",  "4 ",  "0x8",        "1e2",
        "2.5", "x", "99999999", "4294967300", "18446744073709551617"};
    corpus(
        "topology", 3000,
        [&](Rng &rng) {
            std::string s = rng.pick(std::vector<std::string>{
                "mesh", "torus", "ring", "star", "min", "fattree",
                "leafspine", "irregular", "cube", ""});
            if (rng.chance(0.95))
                s += ":";
            const auto parts = rng.below(4);
            for (std::uint64_t i = 0; i < parts; ++i) {
                if (i > 0)
                    s += rng.pick(std::vector<std::string>{":", "x"});
                s += rng.pick(sizes);
            }
            return s;
        },
        [](const std::string &spec) {
            const Topology t = topologyFromSpec(spec, 7);
            ASSERT_GE(t.numNodes(), 1u) << spec;
            EXPECT_LE(t.numNodes(), kMaxTopologyNodes) << spec;
            EXPECT_LE(t.numLinks(), kMaxTopologyLinks) << spec;
            EXPECT_TRUE(t.connected()) << spec;
            // Every link is a simple, symmetric pair of ports.
            for (NodeId n = 0; n < t.numNodes(); ++n) {
                std::vector<NodeId> seen;
                for (const auto &p : t.ports(n)) {
                    ASSERT_LT(p.neighbor, t.numNodes()) << spec;
                    EXPECT_NE(p.neighbor, n) << spec;
                    const auto &back = t.ports(p.neighbor);
                    ASSERT_LT(p.remotePort, back.size()) << spec;
                    EXPECT_EQ(back[p.remotePort].neighbor, n) << spec;
                    EXPECT_EQ(back[p.remotePort].remotePort, p.localPort)
                        << spec;
                    seen.push_back(p.neighbor);
                }
                std::sort(seen.begin(), seen.end());
                EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()),
                          seen.end())
                    << spec << ": parallel links at node " << n;
            }
        });
}

TEST(ChurnMix, UncarriableRateThrowsWithoutADump)
{
    // A rate no link can carry is a user error (mmr_fatal): it must not
    // reach the timed setup's assert and leave a bogus crash dump.
    const std::string dump =
        ::testing::TempDir() + "churn_uncarriable_mix_dump.json";
    std::remove(dump.c_str());
    FlightRecorder fr;
    fr.setDumpPath(dump);
    fr.activate();
    struct Case
    {
        const char *mix;
        double peakToMean;
    };
    for (const Case c : {Case{"2g=1", 2.0}, Case{"64k=1,vbr:1g=1", 2.0},
                         Case{"vbr:5m=1", 0.5}}) {
        NetworkConfig nc;
        Network net(Topology::mesh2d(2, 2), nc);
        ChurnConfig cc;
        cc.enabled = true;
        cc.workload.mix = parseSessionMix(c.mix);
        cc.workload.peakToMean = c.peakToMean;
        EXPECT_THROW(ChurnEngine(net, cc, 1000, 1), std::runtime_error)
            << c.mix << " at peak/mean " << c.peakToMean;
    }
    fr.deactivate();
    EXPECT_FALSE(std::ifstream(dump).good())
        << "an uncarriable mix wrote a crash dump";
}

} // namespace
} // namespace mmr
