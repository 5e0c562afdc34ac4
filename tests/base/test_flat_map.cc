/**
 * @file
 * Model-based tests for FlatMap, the open-addressing table under every
 * setup ledger: seeded random insert / erase / reserve / clear /
 * forEach sequences are replayed against std::map, and every step must
 * agree.  Also pins the two properties the control plane leans on: the
 * same-capacity tombstone sweep keeps recycling two slot arrays, and
 * forEach order is a pure function of the operation sequence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "base/flat_map.hh"
#include "base/rng.hh"

namespace mmr
{
namespace
{

using Map = FlatMap<std::uint32_t, std::uint64_t>;
using Model = std::map<std::uint32_t, std::uint64_t>;

/** Sorted snapshot of the live entries, via forEach. */
std::vector<std::pair<std::uint32_t, std::uint64_t>>
entries(const Map &m)
{
    std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
    m.forEach([&](std::uint32_t k, std::uint64_t v) {
        out.emplace_back(k, v);
    });
    std::sort(out.begin(), out.end());
    return out;
}

void
expectSame(const Map &m, const Model &model)
{
    ASSERT_EQ(m.size(), model.size());
    ASSERT_EQ(m.empty(), model.empty());
    const auto got = entries(m);
    ASSERT_EQ(got.size(), model.size()) << "forEach visited a key twice "
                                           "or missed one";
    auto it = model.begin();
    for (const auto &[k, v] : got) {
        ASSERT_EQ(k, it->first);
        ASSERT_EQ(v, it->second);
        ++it;
    }
}

/**
 * One seeded random sequence of operations, checked against std::map
 * after every step.  Keys come from a small range so inserts collide
 * with live keys and with tombstones, and erases hit both present and
 * absent keys.  Returns the forEach key order at the end.
 */
std::vector<std::uint32_t>
runModelSequence(std::uint64_t seed, std::uint32_t keyRange, int steps)
{
    Rng rng(seed);
    Map m;
    Model model;
    for (int step = 0; step < steps; ++step) {
        const auto key = static_cast<std::uint32_t>(rng.below(keyRange));
        const std::uint64_t op = rng.below(100);
        if (op < 45) {
            const std::uint64_t value = rng.next();
            const auto [slot, inserted] = m.insert(key, value);
            const auto [it, modelInserted] = model.emplace(key, value);
            EXPECT_EQ(inserted, modelInserted) << "step " << step;
            EXPECT_EQ(*slot, it->second)
                << "insert must not overwrite a live mapping";
        } else if (op < 80) {
            EXPECT_EQ(m.erase(key), model.erase(key) == 1)
                << "step " << step;
        } else if (op < 90) {
            ++m[key];
            ++model[key];
        } else if (op < 97) {
            const std::uint64_t *v = m.find(key);
            const auto it = model.find(key);
            EXPECT_EQ(v != nullptr, it != model.end());
            EXPECT_EQ(m.contains(key), it != model.end());
            if (v != nullptr && it != model.end()) {
                EXPECT_EQ(*v, it->second);
            }
        } else if (op < 99) {
            m.reserve(rng.below(512));
        } else {
            m.clear();
            model.clear();
        }
        expectSame(m, model);
        if (::testing::Test::HasFatalFailure())
            return {};
    }
    std::vector<std::uint32_t> order;
    m.forEach([&](std::uint32_t k, std::uint64_t) { order.push_back(k); });
    return order;
}

TEST(FlatMap, RandomSequencesMatchStdMap)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        runModelSequence(seed, /*keyRange=*/64, /*steps=*/3000);
        ASSERT_FALSE(HasFatalFailure());
        // A wide key range: mostly distinct keys, many growth steps.
        runModelSequence(seed, /*keyRange=*/1u << 20, /*steps=*/3000);
        ASSERT_FALSE(HasFatalFailure());
    }
}

TEST(FlatMap, ForEachOrderIsDeterministic)
{
    // Not key order, but a pure function of the operation sequence:
    // two identical runs visit the same keys in the same order.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto a = runModelSequence(seed, 256, 4000);
        const auto b = runModelSequence(seed, 256, 4000);
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b) << "seed " << seed;
    }
}

TEST(FlatMap, EmptyMapFindsNothing)
{
    Map m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(7), nullptr);
    EXPECT_FALSE(m.contains(7));
    EXPECT_FALSE(m.erase(7));
    int visits = 0;
    m.forEach([&](std::uint32_t, std::uint64_t) { ++visits; });
    EXPECT_EQ(visits, 0);
}

TEST(FlatMap, TombstoneSweepRecyclesTheSpareArray)
{
    // Churn one insert + one erase at a time with a single key pinned
    // live: the live count never grows, so tombstones pile up until
    // reserveOne() sweeps them with a same-capacity rehash.  That
    // rehash is double-buffered — it must bounce the pinned entry
    // between exactly two slot arrays, never a third, and the table's
    // contents must survive every sweep.
    Map m;
    m.reserve(8);
    const std::uint32_t pinned = 1000000;
    m.insert(pinned, 42);
    std::set<const std::uint64_t *> homes{m.find(pinned)};
    Model model{{pinned, 42}};

    int sweeps = 0;
    const std::uint64_t *last = m.find(pinned);
    for (std::uint32_t k = 0; k < 2000; ++k) {
        m.insert(k, k);
        model.emplace(k, k);
        ASSERT_TRUE(m.erase(k));
        model.erase(k);
        const std::uint64_t *now = m.find(pinned);
        ASSERT_NE(now, nullptr) << "pinned entry lost in a sweep";
        EXPECT_EQ(*now, 42u);
        if (now != last) {
            ++sweeps;
            homes.insert(now);
            last = now;
        }
        // A sweep mid-sequence must leave the table exactly right.
        expectSame(m, model);
        ASSERT_FALSE(HasFatalFailure());
    }
    EXPECT_GE(sweeps, 10) << "the churn never triggered a tombstone sweep";
    EXPECT_EQ(homes.size(), 2u)
        << "same-capacity sweeps must alternate between the slot array "
           "and its spare, not mint new arrays";
}

TEST(FlatMap, GrowthRehashKeepsEveryEntry)
{
    // Interleave erases with growth so a growth rehash sees tombstones.
    Map m;
    Model model;
    for (std::uint32_t k = 0; k < 5000; ++k) {
        m.insert(k * 7919u, k);
        model.emplace(k * 7919u, k);
        if (k % 3 == 0) {
            m.erase((k / 2) * 7919u);
            model.erase((k / 2) * 7919u);
        }
    }
    expectSame(m, model);
}

TEST(FlatMap, ClearKeepsWorkingAfterReuse)
{
    Map m;
    for (std::uint32_t k = 0; k < 100; ++k)
        m.insert(k, k);
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(5), nullptr);
    for (std::uint32_t k = 50; k < 150; ++k)
        EXPECT_TRUE(m.insert(k, 2 * k).second);
    EXPECT_EQ(m.size(), 100u);
    EXPECT_EQ(*m.find(149), 298u);
}

} // namespace
} // namespace mmr
