#include "sim/shard_pool.hh"

#include "base/logging.hh"
#include "base/simclock.hh"

namespace mmr
{

namespace
{

/**
 * Spin briefly, then yield: phases are microseconds apart when the
 * host has a core per shard, but on an oversubscribed (or 1-core)
 * host the partner thread needs the CPU to make progress at all.
 */
void
relaxWait(unsigned &spins)
{
    if (++spins < 256)
        return;
    std::this_thread::yield();
}

} // namespace

ShardPool::ShardPool(unsigned shards) : numShards(shards)
{
    mmr_assert(shards >= 1, "shard pool needs at least one shard");
    workers.reserve(shards - 1);
    for (unsigned s = 1; s < shards; ++s)
        workers.emplace_back([this, s] { workerLoop(s); });
}

ShardPool::~ShardPool()
{
    stopping = true;
    phaseSeq.fetch_add(1, std::memory_order_release);
    for (std::thread &t : workers)
        t.join();
}

void
ShardPool::runPhase(Cycle now, const PhaseFn &fn)
{
    job = &fn;
    jobCycle = now;
    pending.store(static_cast<unsigned>(workers.size()),
                  std::memory_order_relaxed);
    phaseSeq.fetch_add(1, std::memory_order_release);

    // The coordinator is shard 0's worker.
    fn(0);

    unsigned spins = 0;
    while (pending.load(std::memory_order_acquire) != 0)
        relaxWait(spins);
    job = nullptr;
}

void
ShardPool::workerLoop(unsigned shard_id)
{
    std::uint64_t seen = 0;
    for (;;) {
        unsigned spins = 0;
        while (phaseSeq.load(std::memory_order_acquire) == seen)
            relaxWait(spins);
        seen = phaseSeq.load(std::memory_order_acquire);
        if (stopping)
            return;
        // Stamp the worker's thread-local simclock so any log or
        // trace emitted from this shard carries the right cycle.
        simclock::set(jobCycle);
        (*job)(shard_id);
        pending.fetch_sub(1, std::memory_order_release);
    }
}

} // namespace mmr
