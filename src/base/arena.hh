/**
 * @file
 * Bump arena for the connection-setup fast path.
 *
 * PR 8 turned connection setup into a hot path: a churn run pays one
 * EPB search (or timed probe walk) per session, a million times per
 * process.  The data plane already owns its memory up front (VC
 * buffers, pool-backed sessions); the setup plane was the last part
 * of the cycle loop still touching the global heap — candidate
 * vectors, searched-bit tables, BFS frontiers, all rebuilt per call.
 *
 * An Arena is the setup plane's answer: a chain of geometrically
 * grown chunks with pointer-bump allocation and an O(1) reset() that
 * keeps every chunk's capacity.  After the arena has grown to the
 * high-water mark of one setup, every later setup allocates nothing
 * from the heap — the same amortized-to-zero discipline mmr-lint's
 * hot-path-alloc rule enforces on per-cycle containers.
 *
 * Ownership and reset rules (DESIGN.md §8):
 *  - one Arena per owning component (Network's SetupScratch, the
 *    probe manager's per-action scratch); never shared across
 *    threads — setup runs coordinator-serial by design.
 *  - reset() invalidates every object handed out since the previous
 *    reset; callers must not hold arena pointers across the call.
 *    The convention is reset-at-entry: each setup action resets the
 *    scratch it owns, so lifetimes are bounded by one action.
 *  - only trivially destructible types: reset() never runs
 *    destructors.
 */

#ifndef MMR_BASE_ARENA_HH
#define MMR_BASE_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace mmr
{

class Arena
{
  public:
    /** Default size of the first chunk (bytes); later chunks double. */
    static constexpr std::size_t kDefaultChunkBytes = 4096;

    explicit Arena(std::size_t firstChunkBytes = kDefaultChunkBytes)
        : nextChunkBytes(firstChunkBytes)
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate @p n objects of T, default-initialized (i.e. POD
     * contents are indeterminate — callers fill them).  T must be
     * trivially destructible: reset() will not run destructors.
     */
    template <typename T>
    T *
    allocate(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena objects are never destroyed");
        // Offsets are aligned relative to the chunk start, and chunks
        // come from new[]: stricter alignment would be silently lost.
        static_assert(alignof(T) <= alignof(std::max_align_t),
                      "arena chunks are only max_align_t-aligned");
        const std::size_t bytes = n * sizeof(T);
        std::size_t off = align(cursor, alignof(T));
        if (chunk >= chunks.size() || off + bytes > chunks[chunk].size) {
            nextChunk(bytes + alignof(T));
            off = align(cursor, alignof(T));
        }
        cursor = off + bytes;
        return reinterpret_cast<T *>(chunks[chunk].data.get() + off);
    }

    /** Allocate n objects of T and zero-fill them. */
    template <typename T>
    T *
    allocateZeroed(std::size_t n)
    {
        T *p = allocate<T>(n);
        for (std::size_t i = 0; i < n; ++i)
            p[i] = T{};
        return p;
    }

    /**
     * Drop every allocation while keeping all chunk capacity.  O(1):
     * rewinds to the first chunk; subsequent allocations re-bump
     * through the retained chain without touching the heap.
     */
    void
    reset()
    {
        chunk = 0;
        cursor = 0;
    }

    /** Total bytes of chunk capacity currently retained. */
    std::size_t
    capacityBytes() const
    {
        std::size_t total = 0;
        for (const Chunk &c : chunks)
            total += c.size;
        return total;
    }

  private:
    struct Chunk
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
    };

    static std::size_t
    align(std::size_t off, std::size_t a)
    {
        return (off + a - 1) & ~(a - 1);
    }

    /** Advance to a chunk with at least @p need free bytes, growing
     * the chain geometrically when the retained ones are spent. */
    void
    nextChunk(std::size_t need)
    {
        // Skip forward through retained chunks first (reset() rewound
        // to chunk 0; later chunks may already be big enough).
        while (chunk + 1 < chunks.size()) {
            ++chunk;
            cursor = 0;
            if (need <= chunks[chunk].size)
                return;
        }
        std::size_t size = nextChunkBytes;
        while (size < need)
            size *= 2;
        nextChunkBytes = size * 2;
        Chunk c;
        c.data = std::make_unique<std::byte[]>(size);
        c.size = size;
        chunks.push_back(std::move(c));
        chunk = chunks.size() - 1;
        cursor = 0;
    }

    std::vector<Chunk> chunks;
    std::size_t chunk = 0;       ///< index of the chunk being bumped
    std::size_t cursor = 0;      ///< bump offset within that chunk
    std::size_t nextChunkBytes;  ///< size of the next chunk to mint
};

/**
 * Per-component scratch for one setup/teardown action: a bump arena
 * plus the recurring typed scratch vectors every path-search step
 * needs (BFS distances and frontiers, candidate port lists, searched
 * bitmasks).  The vectors keep their capacity across actions exactly
 * like the per-cycle scheduler scratch in MmrRouter; the arena covers
 * the irregular remainder.
 *
 * One SetupScratch per owner; reset-at-entry (see Arena).
 */
struct SetupScratch
{
    Arena arena;

    /** BFS scratch (survivingDistances). */
    std::vector<unsigned> dist;
    std::vector<NodeId> frontier;
    std::vector<NodeId> next;

    /** Candidate output ports of the current search step. */
    std::vector<PortId> cands;

    /**
     * Flat per-node searched-bit table: node n's bits live in words
     * [n * searchedWordsPerNode, (n+1) * searchedWordsPerNode).  Bit
     * d = output port d already tried at n; bit degree(n) = the NI /
     * destination reservation attempt.  Replaces the per-search
     * unordered_map<NodeId, BitVector> — flat indexing removes both
     * the per-search rehash churn and the iteration-order hazard.
     */
    std::vector<std::uint64_t> searchedWords;
    std::size_t searchedWordsPerNode = 0;

    /** Size + clear the searched table for a topology with
     * @p numNodes nodes and at most @p maxDegree ports per node. */
    void
    resetSearched(std::size_t numNodes, std::size_t maxDegree)
    {
        searchedWordsPerNode = (maxDegree + 1 + 63) / 64;
        // mmr-lint: allow(hot-path-alloc) amortized: sized by the
        // (fixed) topology, capacity persists across searches.
        searchedWords.assign(numNodes * searchedWordsPerNode, 0);
    }

    bool
    searched(NodeId n, std::size_t bit) const
    {
        const std::size_t w = n * searchedWordsPerNode + bit / 64;
        return (searchedWords[w] >> (bit % 64)) & 1u;
    }

    void
    markSearched(NodeId n, std::size_t bit)
    {
        const std::size_t w = n * searchedWordsPerNode + bit / 64;
        searchedWords[w] |= std::uint64_t{1} << (bit % 64);
    }

    /** Reset the arena for the next action (vectors are cleared at
     * their points of use so capacity survives). */
    void
    begin()
    {
        arena.reset();
    }
};

} // namespace mmr

#endif // MMR_BASE_ARENA_HH
