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

/**
 * Cache line size. A compile-time power of two, so splitting an access
 * into lines is a shift, not a division.
 */
constexpr std::uint32_t kCacheLineBytes = 64;

/** Shared cache geometry. */
struct CacheConfig
{
    std::uint64_t capacityBytes = 2ull << 20; //!< 2 MB as in the paper
    /**
     * Associativity: lines per set. 0 (the default) = fully
     * associative, the paper's generous baseline assumption; a real
     * design point sets e.g. 4/8/16 ways and pays extra conflict
     * misses — the DSE sweeps this axis to price that gap.
     */
    std::uint32_t ways = 0;

    std::uint64_t numLines() const { return capacityBytes / kCacheLineBytes; }

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
 * found through an open-addressed table of node ids keyed by the
 * node's line. A set-associative cache keeps `ways` tags per touched
 * set in one array, MRU first, found through the same kind of table
 * of block ids keyed by the block's set (a one-set geometry is a fully
 * associative cache of `ways` lines and runs as one). The tables
 * store 4-byte ids and read each key back from its node or block.
 * Memory grows with what is touched (a node per resident line, `ways`
 * tag slots per touched set), never with the configured capacity.
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
     * Open-addressed index of uint32 ids by uint64 key: linear probing,
     * Fibonacci hashing, backward-shift erase (no tombstones). A slot
     * holds only an id; the id's key is read back through keyOf(id)
     * from the array the ids index (a node's line, a block's set), so
     * a slot costs 4 bytes. Holds at most half its slots, doubling as
     * ids arrive.
     */
    class IndexTable
    {
      public:
        /** The id whose key is @p key, or kNone. */
        template <typename KeyOf>
        std::uint32_t find(std::uint64_t key, KeyOf keyOf) const;
        /** Insert @p id, whose key keyOf(id) must be absent. */
        template <typename KeyOf>
        void insert(std::uint32_t id, KeyOf keyOf);
        /** Remove @p id, which must be present under keyOf(id). */
        template <typename KeyOf>
        void erase(std::uint32_t id, KeyOf keyOf);

      private:
        std::size_t home(std::uint64_t key) const;
        template <typename KeyOf>
        void grow(KeyOf keyOf);

        std::vector<std::uint32_t> _slots; //!< power-of-two size, or empty
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
    IndexTable _index;         //!< nodes by line, or blocks by set
    std::vector<Node> _nodes;  //!< fully associative resident lines
    std::uint32_t _head = kNone; //!< most recently used node
    std::uint32_t _tail = kNone; //!< least recently used node
    std::vector<std::uint64_t> _tags; //!< `ways` tags per block, MRU first
    std::vector<std::uint32_t> _fill; //!< resident tags per block
    std::vector<std::uint64_t> _blockSet; //!< the set each block holds
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
