/**
 * @file
 * Micro-benchmarks (google-benchmark) for the mechanisms the paper
 * requires to be fast in hardware — and which bound this simulator's
 * cycle cost in software: status bit-vector algebra (§4.1), candidate
 * collection by the link scheduler, switch-matching computation
 * (§4.4), and the RNG.
 */

#include <benchmark/benchmark.h>

#include <algorithm>

#include "base/bitvector.hh"
#include "base/rng.hh"
#include "router/link_sched.hh"
#include "router/switch_sched.hh"

namespace
{

using namespace mmr;

void
BM_BitVectorAnd(benchmark::State &state)
{
    const auto bits = static_cast<std::size_t>(state.range(0));
    BitVector a(bits), b(bits);
    Rng rng(1);
    for (std::size_t i = 0; i < bits; ++i) {
        a.assign(i, rng.chance(0.3));
        b.assign(i, rng.chance(0.3));
    }
    for (auto _ : state) {
        BitVector c = a & b;
        benchmark::DoNotOptimize(c.count());
    }
}
BENCHMARK(BM_BitVectorAnd)->Arg(256)->Arg(2048);

void
BM_BitVectorIterateSetBits(benchmark::State &state)
{
    const auto bits = static_cast<std::size_t>(state.range(0));
    BitVector v(bits);
    Rng rng(2);
    for (std::size_t i = 0; i < bits; ++i)
        v.assign(i, rng.chance(0.1));
    for (auto _ : state) {
        std::size_t sum = 0;
        for (std::size_t i = v.findFirst(); i < v.size();
             i = v.findNext(i))
            sum += i;
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_BitVectorIterateSetBits)->Arg(256)->Arg(2048);

void
BM_LinkSchedulerCollect(benchmark::State &state)
{
    const auto ready = static_cast<unsigned>(state.range(0));
    VcMemory mem(256, 8);
    CreditManager credits(8, 256, 4);
    credits.setInfinite(true);
    LinkScheduler sched(0, &mem, 8, PriorityPolicy::Biased, 512);
    for (unsigned i = 0; i < ready; ++i) {
        const VcId v = static_cast<VcId>(i);
        mem.vc(v).bindCbr(i, 4, 50.0 + i);
        mem.vc(v).setMapping(static_cast<PortId>(i % 8), v);
        Flit f;
        mem.deposit(v, f);
    }
    std::vector<Candidate> out;
    for (auto _ : state) {
        out.clear();
        sched.collectCandidates(100, 8, credits, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_LinkSchedulerCollect)->Arg(8)->Arg(64)->Arg(256);

void
BM_SwitchMatching(benchmark::State &state)
{
    const unsigned ports = 8;
    GreedyPriorityScheduler sched(ports);
    PortMasks masks(ports);
    Rng rng(4);
    std::vector<std::vector<Candidate>> per(ports);
    for (PortId in = 0; in < ports; ++in) {
        for (unsigned k = 0; k < static_cast<unsigned>(state.range(0));
             ++k) {
            Candidate c;
            c.in = in;
            c.vc = static_cast<VcId>(k);
            c.out = static_cast<PortId>(rng.below(ports));
            c.outVc = 0;
            c.conn = in * 100 + k;
            c.tier = 3;
            c.prio = rng.uniform();
            c.tie = rng.uniform();
            per[in].push_back(c);
        }
        // Rank order, as the link scheduler emits each list.
        std::sort(per[in].begin(), per[in].end(),
                  [](const Candidate &a, const Candidate &b) {
                      if (a.prio != b.prio)
                          return a.prio > b.prio;
                      return a.tie > b.tie;
                  });
    }
    for (auto _ : state) {
        Matching m = sched.schedule(per, masks, rng);
        benchmark::DoNotOptimize(m.data());
    }
}
BENCHMARK(BM_SwitchMatching)->Arg(1)->Arg(4)->Arg(8);

void
BM_AutonetMatching(benchmark::State &state)
{
    const unsigned ports = 8;
    AutonetScheduler sched(ports);
    PortMasks masks(ports);
    Rng rng(5);
    std::vector<std::vector<Candidate>> per(ports);
    for (PortId in = 0; in < ports; ++in) {
        for (unsigned k = 0; k < 8; ++k) {
            Candidate c;
            c.in = in;
            c.vc = static_cast<VcId>(k);
            c.out = static_cast<PortId>(rng.below(ports));
            c.tier = 3;
            c.prio = rng.uniform();
            per[in].push_back(c);
        }
    }
    for (auto _ : state) {
        Matching m = sched.schedule(per, masks, rng);
        benchmark::DoNotOptimize(m.data());
    }
}
BENCHMARK(BM_AutonetMatching);

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

} // namespace

BENCHMARK_MAIN();
