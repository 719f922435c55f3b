/**
 * @file
 * Tests for the LRU and Belady (oracle) cache models: the flat LRU
 * against a list-based reference on seeded traces, its memory bound
 * at huge capacities, and the property that oracle replacement never
 * loses to LRU.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <list>
#include <new>
#include <vector>

#include "common/rng.hh"
#include "memory/cache_model.hh"

namespace {

/** Bytes requested through operator new since the program started. */
std::atomic<std::size_t> gAllocatedBytes{0};

} // namespace

// Counting replacements of the global allocation functions (the array
// forms forward here), so a test can bound what a model allocates.
// Kept out of line so the compiler never pairs an inlined free() with
// the operator new call that made the pointer.
__attribute__((noinline)) void *
operator new(std::size_t size)
{
    gAllocatedBytes.fetch_add(size, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

__attribute__((noinline)) void
operator delete(void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace cicero {
namespace {

CacheConfig
tinyCache(std::uint64_t lines)
{
    CacheConfig cfg;
    cfg.capacityBytes = lines * 64;
    return cfg;
}

MemAccess
line(std::uint64_t id)
{
    return MemAccess{id * 64, 64, 0};
}

TEST(LruCacheTest, HitsOnRepeat)
{
    LruCache cache(tinyCache(4));
    cache.onAccess(line(0));
    cache.onAccess(line(0));
    EXPECT_EQ(cache.stats().accesses, 2u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(LruCacheTest, EvictsLeastRecent)
{
    LruCache cache(tinyCache(2));
    cache.onAccess(line(0)); // miss
    cache.onAccess(line(1)); // miss
    cache.onAccess(line(0)); // hit, 1 now LRU
    cache.onAccess(line(2)); // miss, evicts 1
    cache.onAccess(line(0)); // hit
    cache.onAccess(line(1)); // miss (was evicted)
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(LruCacheTest, ThrashingPattern)
{
    // Cyclic access over capacity+1 lines: LRU never hits.
    LruCache cache(tinyCache(4));
    for (int rep = 0; rep < 5; ++rep)
        for (std::uint64_t l = 0; l < 5; ++l)
            cache.onAccess(line(l));
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(LruCacheTest, MultiLineAccessTouchesAllLines)
{
    LruCache cache(tinyCache(16));
    cache.onAccess(MemAccess{0, 256, 0}); // 4 lines
    EXPECT_EQ(cache.stats().accesses, 4u);
    EXPECT_EQ(cache.stats().misses, 4u);
}

/**
 * The textbook model the flat LruCache must match: one std::list per
 * set, most recent at the front, `ways` lines per set (the whole
 * capacity when fully associative).
 */
class ReferenceLru
{
  public:
    explicit ReferenceLru(const CacheConfig &config)
        : _sets(config.numSets()),
          _setLines(config.ways ? config.ways : config.numLines())
    {
    }

    void
    onAccess(const MemAccess &a)
    {
        const std::uint64_t first = a.addr / kCacheLineBytes;
        const std::uint64_t last =
            (a.addr + std::max(a.bytes, 1u) - 1) / kCacheLineBytes;
        for (std::uint64_t l = first; l <= last; ++l) {
            std::list<std::uint64_t> &set = _sets[l % _sets.size()];
            ++stats.accesses;
            auto it = std::find(set.begin(), set.end(), l);
            if (it != set.end()) {
                ++stats.hits;
                set.erase(it);
            } else {
                ++stats.misses;
                if (set.size() == _setLines && !set.empty())
                    set.pop_back();
            }
            if (_setLines > 0)
                set.push_front(l);
        }
    }

    CacheStats stats;

  private:
    std::vector<std::list<std::uint64_t>> _sets;
    std::size_t _setLines;
};

/** Seeded accesses over a hot and a cold line range, up to 5 lines each. */
std::vector<MemAccess>
mixedTrace(std::uint64_t seed, int n, std::uint64_t lines)
{
    Rng rng(seed);
    std::vector<MemAccess> trace;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t span = rng.uniform() < 0.6 ? lines / 8 + 1
                                                       : lines;
        MemAccess a;
        a.addr = rng.uniformInt(span * 64);
        a.bytes = rng.uniform() < 0.7
                      ? 4 + static_cast<std::uint32_t>(rng.uniformInt(60))
                      : static_cast<std::uint32_t>(rng.uniformInt(300));
        trace.push_back(a);
    }
    return trace;
}

struct LruGeometry
{
    std::uint32_t ways;
    std::uint64_t lines; //!< capacity in 64 B lines
};

class LruMatchesReference : public ::testing::TestWithParam<int>
{
};

TEST_P(LruMatchesReference, HitAndMissSequence)
{
    const LruGeometry geometries[] = {
        {0, 1},  {0, 2},  {0, 3},  {0, 16}, {0, 64},  {1, 1},
        {1, 4},  {1, 64}, {2, 1},  {2, 3},  {2, 16},  {2, 64},
        {8, 4},  {8, 8},  {8, 12}, {8, 64}, {8, 256},
        // Set counts above 1 that are not powers of two: 12, 6, 6.
        {2, 24}, {3, 18}, {8, 48}};
    for (const LruGeometry &g : geometries) {
        SCOPED_TRACE("ways " + std::to_string(g.ways) + ", lines " +
                     std::to_string(g.lines));
        CacheConfig cfg = tinyCache(g.lines);
        cfg.ways = g.ways;
        LruCache cache(cfg);
        ReferenceLru ref(cfg);
        const std::vector<MemAccess> trace =
            mixedTrace(GetParam() * 131 + g.ways, 1500, 4 * g.lines + 4);
        for (std::size_t i = 0; i < trace.size(); ++i) {
            cache.onAccess(trace[i]);
            ref.onAccess(trace[i]);
            ASSERT_EQ(cache.stats().hits, ref.stats.hits) << "access " << i;
            ASSERT_EQ(cache.stats().misses, ref.stats.misses)
                << "access " << i;
        }
        EXPECT_EQ(cache.stats().accesses, ref.stats.accesses);

        // reset() forgets every resident line: the cache then replays
        // like a fresh reference.
        cache.reset();
        EXPECT_EQ(cache.stats().accesses, 0u);
        ReferenceLru fresh(cfg);
        for (const MemAccess &a : trace) {
            cache.onAccess(a);
            fresh.onAccess(a);
        }
        EXPECT_EQ(cache.stats().hits, fresh.stats.hits);
        EXPECT_EQ(cache.stats().misses, fresh.stats.misses);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruMatchesReference, ::testing::Range(1, 9));

TEST(LruCacheTest, ZeroLineCapacityAlwaysMisses)
{
    CacheConfig cfg = tinyCache(0);
    cfg.capacityBytes = 32; // less than one line
    LruCache cache(cfg);
    for (int rep = 0; rep < 3; ++rep)
        cache.onAccess(line(7));
    EXPECT_EQ(cache.stats().accesses, 3u);
    EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(LruCacheTest, HugeCapacityAllocatesPerTouchedLine)
{
    // 64 GB, the largest capacity cicero_trace replay accepts: a
    // model sized by capacity would ask for gigabytes here.
    for (std::uint32_t ways : {0u, 8u}) {
        SCOPED_TRACE("ways " + std::to_string(ways));
        CacheConfig cfg;
        cfg.capacityBytes = 65536ull << 20;
        cfg.ways = ways;
        const std::size_t before = gAllocatedBytes.load();
        LruCache cache(cfg);
        Rng rng(11);
        const std::uint64_t touched = 4096;
        for (std::uint64_t i = 0; i < touched; ++i)
            cache.onAccess(line(rng.uniformInt(1ull << 30)));
        const std::size_t allocated = gAllocatedBytes.load() - before;
        EXPECT_EQ(cache.stats().misses, cache.stats().accesses -
                                            cache.stats().hits);
        EXPECT_LT(allocated, 512 * touched);
    }
}

TEST(BeladyCacheTest, OptimalOnThrashingPattern)
{
    // Same cyclic pattern: Belady keeps 3 of 5 lines resident and hits.
    BeladyCache cache(tinyCache(4));
    for (int rep = 0; rep < 5; ++rep)
        for (std::uint64_t l = 0; l < 5; ++l)
            cache.onAccess(line(l));
    CacheStats stats = cache.simulate();
    EXPECT_EQ(stats.accesses, 25u);
    EXPECT_GT(stats.hits, 10u);
}

TEST(BeladyCacheTest, AllHitsWhenFits)
{
    BeladyCache cache(tinyCache(8));
    for (int rep = 0; rep < 3; ++rep)
        for (std::uint64_t l = 0; l < 4; ++l)
            cache.onAccess(line(l));
    CacheStats stats = cache.simulate();
    EXPECT_EQ(stats.misses, 4u); // cold misses only
    EXPECT_EQ(stats.hits, 8u);
}

TEST(BeladyCacheTest, KnownOptimalSequence)
{
    // Capacity 2; sequence a b c a b. Belady: keep a (next use sooner
    // than b? both reused)... evict the farther: at c's miss, a reused
    // at 3, b at 4 -> evict b. Hits: a. Then b misses.
    BeladyCache cache(tinyCache(2));
    for (std::uint64_t l : {0ull, 1ull, 2ull, 0ull, 1ull})
        cache.onAccess(line(l));
    CacheStats stats = cache.simulate();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 4u);
}

/** Property: Belady's miss rate never exceeds LRU's. */
class OracleBeatsLru : public ::testing::TestWithParam<int>
{
};

TEST_P(OracleBeatsLru, OnRandomTraces)
{
    Rng rng(GetParam() * 977);
    CacheConfig cfg = tinyCache(16);
    LruCache lru(cfg);
    BeladyCache belady(cfg);
    // Mixture of hot and cold lines.
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t l = rng.uniform() < 0.5
                              ? rng.uniformInt(8)
                              : rng.uniformInt(256);
        lru.onAccess(line(l));
        belady.onAccess(line(l));
    }
    CacheStats opt = belady.simulate();
    EXPECT_LE(opt.misses, lru.stats().misses);
    EXPECT_EQ(opt.accesses, lru.stats().accesses);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OracleBeatsLru, ::testing::Range(1, 15));

TEST(BeladyCacheTest, ResetClearsSequence)
{
    BeladyCache cache(tinyCache(2));
    cache.onAccess(line(0));
    EXPECT_EQ(cache.recordedAccesses(), 1u);
    cache.reset();
    EXPECT_EQ(cache.recordedAccesses(), 0u);
    EXPECT_EQ(cache.simulate().accesses, 0u);
}

TEST(CacheConfigTest, NumLines)
{
    CacheConfig cfg;
    EXPECT_EQ(cfg.numLines(), (2ull << 20) / 64);
}

} // namespace
} // namespace cicero
