/**
 * @file
 * Model-based tests for Arena, the setup path's bump allocator: seeded
 * random allocation sequences must hand out aligned, non-overlapping
 * blocks whose contents survive later allocations, and reset() must
 * keep every chunk so a replayed sequence runs in the retained
 * capacity without growing it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "base/arena.hh"
#include "base/rng.hh"

namespace mmr
{
namespace
{

/** One block handed out by the arena, with the bytes we wrote. */
struct Block
{
    std::uintptr_t begin;
    std::size_t bytes;
    std::uint8_t fill;
};

/** The strictest alignment an arena chunk guarantees. */
struct alignas(alignof(std::max_align_t)) Wide
{
    std::uint64_t w[4];
};

/**
 * Allocate a seeded random mix of types and sizes, fill each block with
 * its own byte, and check alignment and disjointness on the way.
 * Returns the blocks in allocation order.
 */
std::vector<Block>
allocateSequence(Arena &arena, std::uint64_t seed, int count)
{
    Rng rng(seed);
    std::vector<Block> blocks;
    for (int i = 0; i < count; ++i) {
        const std::size_t n = 1 + rng.below(rng.chance(0.05) ? 3000 : 40);
        const auto fill = static_cast<std::uint8_t>(i * 37 + 1);
        void *p = nullptr;
        std::size_t bytes = 0;
        std::size_t align = 0;
        switch (rng.below(4)) {
          case 0:
            p = arena.allocate<std::uint8_t>(n);
            bytes = n;
            align = 1;
            break;
          case 1:
            p = arena.allocate<std::uint32_t>(n);
            bytes = n * 4;
            align = 4;
            break;
          case 2:
            p = arena.allocate<std::uint64_t>(n);
            bytes = n * 8;
            align = 8;
            break;
          default:
            p = arena.allocate<Wide>(n);
            bytes = n * sizeof(Wide);
            align = alignof(Wide);
            break;
        }
        const auto addr = reinterpret_cast<std::uintptr_t>(p);
        EXPECT_EQ(addr % align, 0u) << "misaligned block " << i;
        std::memset(p, fill, bytes);
        blocks.push_back({addr, bytes, fill});
    }
    return blocks;
}

/** Every block still holds its own fill byte, and no two overlap. */
void
expectIntact(std::vector<Block> blocks)
{
    for (const Block &b : blocks) {
        const auto *p = reinterpret_cast<const std::uint8_t *>(b.begin);
        for (std::size_t i = 0; i < b.bytes; ++i)
            ASSERT_EQ(p[i], b.fill) << "block clobbered by a later one";
    }
    std::sort(blocks.begin(), blocks.end(),
              [](const Block &a, const Block &b) {
                  return a.begin < b.begin;
              });
    for (std::size_t i = 1; i < blocks.size(); ++i)
        ASSERT_LE(blocks[i - 1].begin + blocks[i - 1].bytes,
                  blocks[i].begin)
            << "blocks overlap";
}

TEST(Arena, RandomAllocationsAreAlignedDisjointAndDurable)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        Arena arena(/*firstChunkBytes=*/256);
        expectIntact(allocateSequence(arena, seed, 400));
        ASSERT_FALSE(HasFatalFailure());
    }
}

TEST(Arena, ResetKeepsCapacityAndReplaysInPlace)
{
    // A replay of the same sequence after reset() must fit the retained
    // chunks exactly: same blocks, no growth — the reset-at-entry
    // setup scratch allocates nothing once warm.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SCOPED_TRACE(seed);
        Arena arena(256);
        const auto first = allocateSequence(arena, seed, 300);
        const std::size_t cap = arena.capacityBytes();
        ASSERT_GT(cap, 0u);

        for (int round = 0; round < 3; ++round) {
            arena.reset();
            EXPECT_EQ(arena.capacityBytes(), cap)
                << "reset() released chunk capacity";
            const auto again = allocateSequence(arena, seed, 300);
            EXPECT_EQ(arena.capacityBytes(), cap)
                << "a replay after reset() grew the arena";
            ASSERT_EQ(again.size(), first.size());
            for (std::size_t i = 0; i < first.size(); ++i)
                ASSERT_EQ(again[i].begin, first[i].begin)
                    << "replayed block " << i << " moved";
            expectIntact(again);
            ASSERT_FALSE(HasFatalFailure());
        }
    }
}

TEST(Arena, SmallerWorkAfterResetReusesRetainedChunks)
{
    // After reset, a request too big for chunk 0 skips forward through
    // the retained chain instead of minting a new chunk.
    Arena arena(64);
    arena.allocate<std::uint8_t>(60);
    arena.allocate<std::uint8_t>(1000); // forces a second, larger chunk
    const std::size_t cap = arena.capacityBytes();
    arena.reset();
    arena.allocate<std::uint8_t>(500);
    arena.allocate<std::uint8_t>(10);
    EXPECT_EQ(arena.capacityBytes(), cap);
}

TEST(Arena, AllocateZeroedClearsReusedMemory)
{
    Arena arena(128);
    auto *dirty = arena.allocate<std::uint64_t>(8);
    for (int i = 0; i < 8; ++i)
        dirty[i] = ~std::uint64_t{0};
    arena.reset();
    const auto *clean = arena.allocateZeroed<std::uint64_t>(8);
    EXPECT_EQ(clean, dirty) << "reset() should rewind onto the same bytes";
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(clean[i], 0u);
}

} // namespace
} // namespace mmr
