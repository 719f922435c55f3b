/**
 * @file
 * On-chip buffer (cache) models for the Fig. 5 characterization:
 * an LRU set-associative cache and a Belady (oracle replacement) cache,
 * matching the paper's "2 MB on-chip buffer with oracle replacement".
 */

#ifndef CICERO_MEMORY_CACHE_MODEL_HH
#define CICERO_MEMORY_CACHE_MODEL_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "memory/trace.hh"

namespace cicero {

/** Shared cache geometry. */
struct CacheConfig
{
    std::uint64_t capacityBytes = 2ull << 20; //!< 2 MB as in the paper
    std::uint32_t lineBytes = 64;
    /**
     * Associativity: lines per set. 0 (the default) = fully
     * associative, the paper's generous baseline assumption; a real
     * design point sets e.g. 4/8/16 ways and pays extra conflict
     * misses — the DSE sweeps this axis to price that gap.
     */
    std::uint32_t ways = 0;

    std::uint64_t numLines() const { return capacityBytes / lineBytes; }

    /** Sets at the configured associativity (1 when fully assoc). */
    std::uint64_t numSets() const
    {
        if (ways == 0)
            return 1;
        return std::max<std::uint64_t>(1, numLines() / ways);
    }
};

/** Hit/miss statistics. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    double missRate() const
    {
        return accesses ? static_cast<double>(misses) / accesses : 0.0;
    }
};

/**
 * LRU cache simulated as a TraceSink.
 *
 * With CacheConfig::ways == 0 (the default) it is fully associative —
 * the generous assumption for the baseline: real caches only do
 * worse, so the measured inefficiency is a lower bound. With ways set
 * it models a set-associative cache (set = line mod numSets, LRU
 * within the set), which adds the conflict misses a real design point
 * pays; the DSE sweeps associativity through this path.
 *
 * The state is flat and allocation-free per touch. Fully associative
 * lines sit in a node array threaded as a doubly linked MRU list,
 * found through an open-addressed line -> node table. A set-
 * associative cache keeps `ways` tags per touched set in one array,
 * MRU first, found through the same kind of set -> block table (a
 * one-set geometry is a fully associative cache of `ways` lines and
 * runs as one). Memory grows with what is touched (a node per
 * resident line, `ways` tag slots per touched set), never with the
 * configured capacity.
 */
class LruCache : public TraceSink
{
  public:
    explicit LruCache(const CacheConfig &config = CacheConfig{});

    void onAccess(const MemAccess &access) override;

    const CacheStats &stats() const { return _stats; }
    void reset();

  private:
    static constexpr std::uint32_t kNone = ~0u;

    /**
     * Open-addressed uint64 -> uint32 map: linear probing, Fibonacci
     * hashing, backward-shift erase (no tombstones). Holds at most
     * half its slots, doubling as entries arrive.
     */
    class IndexTable
    {
      public:
        /** Value stored for @p key, or kNone. */
        std::uint32_t find(std::uint64_t key) const;
        /** Insert @p key, which must be absent. */
        void insert(std::uint64_t key, std::uint32_t value);
        /** Remove @p key, which must be present. */
        void erase(std::uint64_t key);

      private:
        struct Entry
        {
            std::uint64_t key;
            std::uint32_t value; //!< kNone = free slot
        };
        std::size_t home(std::uint64_t key) const;
        void grow();

        std::vector<Entry> _entries; //!< power-of-two size, or empty
        std::size_t _count = 0;
        unsigned _shift = 64;
    };

    /** Fully associative resident line, linked in MRU order. */
    struct Node
    {
        std::uint64_t line;
        std::uint32_t prev; //!< towards the MRU end
        std::uint32_t next; //!< towards the LRU end
    };

    void touchFullAssoc(std::uint64_t line);
    void touchSetAssoc(std::uint64_t line);
    void unlink(std::uint32_t n);
    void pushFront(std::uint32_t n);

    CacheConfig _config;
    CacheStats _stats;
    std::uint64_t _numSets;    //!< > 1 selects the set-associative path
    std::uint64_t _capacity;   //!< fully associative: lines it holds
    IndexTable _index;         //!< line -> node, or set -> block
    std::vector<Node> _nodes;  //!< fully associative resident lines
    std::uint32_t _head = kNone; //!< most recently used node
    std::uint32_t _tail = kNone; //!< least recently used node
    std::vector<std::uint64_t> _tags; //!< `ways` tags per block, MRU first
    std::vector<std::uint32_t> _fill; //!< resident tags per block
};

/**
 * Belady/oracle-replacement cache. Because the oracle needs the future,
 * this is a two-pass simulator: record the line-ID sequence as the trace
 * streams in, then simulate() computes the optimal-replacement miss rate.
 */
class BeladyCache : public TraceSink
{
  public:
    explicit BeladyCache(const CacheConfig &config = CacheConfig{});

    void onAccess(const MemAccess &access) override;

    /** Run the oracle simulation over the recorded sequence. */
    CacheStats simulate() const;

    std::size_t recordedAccesses() const { return _sequence.size(); }
    void reset();

  private:
    CacheConfig _config;
    std::vector<std::uint32_t> _sequence; //!< compressed line IDs
    std::unordered_map<std::uint64_t, std::uint32_t> _lineId;
};

} // namespace cicero

#endif // CICERO_MEMORY_CACHE_MODEL_HH
