#include "fault/fault_plan.hh"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "base/cli.hh"
#include "base/logging.hh"
#include "base/rng.hh"

namespace mmr
{

namespace
{

/** Canonical undirected-link key (low node in the high half so keys
 * sort like (min, max) pairs). */
std::uint64_t
linkKey(NodeId a, NodeId b)
{
    const NodeId lo = std::min(a, b);
    const NodeId hi = std::max(a, b);
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/** All undirected links as (low, high) node pairs, in the topology's
 * deterministic edge-insertion order. */
std::vector<std::pair<NodeId, NodeId>>
enumerateLinks(const Topology &topo)
{
    std::vector<std::pair<NodeId, NodeId>> out;
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        for (const auto &port : topo.ports(n))
            if (n < port.neighbor)
                out.emplace_back(n, port.neighbor);
    return out;
}

/** Is the graph minus @p down (plus, optionally, one extra link) still
 * connected? */
bool
connectedWithout(const Topology &topo,
                 const std::unordered_set<std::uint64_t> &down,
                 std::uint64_t extra_down)
{
    const unsigned n = topo.numNodes();
    if (n <= 1)
        return true;
    std::vector<bool> seen(n, false);
    std::vector<NodeId> stack{0};
    seen[0] = true;
    unsigned reached = 1;
    while (!stack.empty()) {
        const NodeId at = stack.back();
        stack.pop_back();
        for (const auto &port : topo.ports(at)) {
            const std::uint64_t key = linkKey(at, port.neighbor);
            if (key == extra_down || down.count(key))
                continue;
            if (!seen[port.neighbor]) {
                seen[port.neighbor] = true;
                ++reached;
                stack.push_back(port.neighbor);
            }
        }
    }
    return reached == n;
}

std::vector<std::string>
splitList(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream iss(s);
    while (std::getline(iss, item, sep))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace

FaultModel
parseFaultModel(const std::string &spec)
{
    FaultModel m;
    for (const std::string &kv : splitList(spec, ',')) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos)
            mmr_fatal("fault-model entry '", kv, "' is not key=value");
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        const std::string what = "fault-model key '" + key + "'";
        if (key == "fail")
            m.linkFailPer10k = parseFinite(val, what);
        else if (key == "repair")
            m.meanRepairCycles = parseCycles(val, what);
        else if (key == "drop")
            m.probeDropRate = parseFinite(val, what);
        else if (key == "corrupt")
            m.corruptRate = parseFinite(val, what);
        else if (key == "horizon")
            m.horizon = parseCycles(val, what);
        else if (key == "partition")
            m.allowPartition = parseFinite(val, what) != 0.0;
        else
            mmr_fatal("unknown fault-model key '", key,
                      "' (expect fail/repair/drop/corrupt/horizon/"
                      "partition)");
    }
    if (m.linkFailPer10k < 0 || m.probeDropRate < 0 ||
        m.probeDropRate > 1 || m.corruptRate < 0 || m.corruptRate > 1)
        mmr_fatal("fault-model rates out of range in '", spec, "'");
    return m;
}

FaultPlan
FaultPlan::random(const Topology &topo, const FaultModel &model,
                  std::uint64_t seed)
{
    FaultPlan plan;
    plan.mdl = model;
    if (model.linkFailPer10k <= 0.0 || model.horizon == 0)
        return plan;

    // Candidate failure windows from independent per-link exponential
    // walks; a pairId ties each repair to its failure so suppressing
    // one suppresses both.
    struct Candidate
    {
        Cycle at;
        FaultEvent::Kind kind;
        NodeId a, b;
        unsigned pairId;
    };
    std::vector<Candidate> cands;
    Rng rng(seed);
    const double mean_gap = 10000.0 / model.linkFailPer10k;
    unsigned pair_id = 0;
    for (const auto &[a, b] : enumerateLinks(topo)) {
        Cycle t = static_cast<Cycle>(rng.exponential(mean_gap));
        while (t < model.horizon) {
            cands.push_back(
                {t, FaultEvent::Kind::LinkDown, a, b, pair_id});
            if (model.meanRepairCycles == 0) {
                ++pair_id;
                break; // no repair: the link stays down forever
            }
            const Cycle up =
                t + 1 +
                static_cast<Cycle>(
                    rng.exponential(double(model.meanRepairCycles)));
            if (up < model.horizon)
                cands.push_back(
                    {up, FaultEvent::Kind::LinkUp, a, b, pair_id});
            ++pair_id;
            t = up + 1 + static_cast<Cycle>(rng.exponential(mean_gap));
        }
    }

    // Chronological replay.  Repairs sort before failures at equal
    // cycles so a failure is judged against the freshest topology.
    std::sort(cands.begin(), cands.end(),
              [](const Candidate &x, const Candidate &y) {
                  if (x.at != y.at)
                      return x.at < y.at;
                  if (x.kind != y.kind)
                      return x.kind == FaultEvent::Kind::LinkUp;
                  return x.pairId < y.pairId;
              });
    std::unordered_set<std::uint64_t> down;
    std::unordered_set<unsigned> skipped;
    for (const Candidate &c : cands) {
        const std::uint64_t key = linkKey(c.a, c.b);
        if (c.kind == FaultEvent::Kind::LinkUp) {
            if (skipped.count(c.pairId))
                continue;
            down.erase(key);
        } else {
            if (!model.allowPartition &&
                !connectedWithout(topo, down, key)) {
                ++plan.skips;
                skipped.insert(c.pairId);
                continue;
            }
            down.insert(key);
        }
        plan.schedule.push_back({c.at, c.kind, c.a, c.b});
    }
    return plan;
}

FaultPlan
FaultPlan::fromEvents(const std::string &spec, const Topology &topo)
{
    FaultPlan plan;
    for (const std::string &tok : splitList(spec, ';')) {
        const auto at_pos = tok.find('@');
        const auto colon = tok.find(':', at_pos);
        const auto dash = tok.find('-', colon);
        if (at_pos == std::string::npos || colon == std::string::npos ||
            dash == std::string::npos)
            mmr_fatal("bad fault event '", tok,
                      "' (expect down@CYCLE:A-B or up@CYCLE:A-B)");
        const std::string kind = tok.substr(0, at_pos);
        FaultEvent ev;
        if (kind == "down")
            ev.kind = FaultEvent::Kind::LinkDown;
        else if (kind == "up")
            ev.kind = FaultEvent::Kind::LinkUp;
        else
            mmr_fatal("bad fault event kind '", kind, "' in '", tok,
                      "'");
        const std::string what = "fault event '" + tok + "'";
        ev.at = parseCycles(tok.substr(at_pos + 1, colon - at_pos - 1),
                            what);
        const Cycle a =
            parseCycles(tok.substr(colon + 1, dash - colon - 1), what);
        const Cycle b = parseCycles(tok.substr(dash + 1), what);
        if (a >= topo.numNodes() || b >= topo.numNodes() ||
            !topo.hasLink(static_cast<NodeId>(a), static_cast<NodeId>(b)))
            mmr_fatal("fault event '", tok,
                      "' names a link the topology does not have");
        ev.a = static_cast<NodeId>(a);
        ev.b = static_cast<NodeId>(b);
        plan.schedule.push_back(ev);
    }
    std::stable_sort(plan.schedule.begin(), plan.schedule.end(),
                     [](const FaultEvent &x, const FaultEvent &y) {
                         return x.at < y.at;
                     });
    return plan;
}

std::string
FaultPlan::toSpec() const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const FaultEvent &ev = schedule[i];
        if (i)
            oss << ';';
        oss << (ev.kind == FaultEvent::Kind::LinkDown ? "down" : "up")
            << '@' << ev.at << ':' << ev.a << '-' << ev.b;
    }
    return oss.str();
}

void
FaultPlan::printJson(std::ostream &os) const
{
    os << "{\"model\":{\"fail_per_10k\":" << mdl.linkFailPer10k
       << ",\"mean_repair_cycles\":" << mdl.meanRepairCycles
       << ",\"probe_drop_rate\":" << mdl.probeDropRate
       << ",\"corrupt_rate\":" << mdl.corruptRate
       << ",\"horizon\":" << mdl.horizon
       << ",\"allow_partition\":" << (mdl.allowPartition ? 1 : 0)
       << "},\"partition_skips\":" << skips << ",\"events\":[";
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const FaultEvent &ev = schedule[i];
        if (i)
            os << ',';
        os << "{\"at\":" << ev.at << ",\"kind\":\""
           << (ev.kind == FaultEvent::Kind::LinkDown ? "down" : "up")
           << "\",\"a\":" << ev.a << ",\"b\":" << ev.b << '}';
    }
    os << "]}";
}

} // namespace mmr
