#include "memory/cache_model.hh"

#include <algorithm>
#include <queue>

namespace cicero {

std::size_t
LruCache::IndexTable::home(std::uint64_t key) const
{
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                    _shift);
}

template <typename KeyOf>
std::uint32_t
LruCache::IndexTable::find(std::uint64_t key, KeyOf keyOf) const
{
    if (_slots.empty())
        return kNone;
    const std::size_t mask = _slots.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
        const std::uint32_t id = _slots[i];
        if (id == kNone || keyOf(id) == key)
            return id;
    }
}

template <typename KeyOf>
void
LruCache::IndexTable::insert(std::uint32_t id, KeyOf keyOf)
{
    if (2 * (_count + 1) > _slots.size())
        grow(keyOf);
    const std::size_t mask = _slots.size() - 1;
    std::size_t i = home(keyOf(id));
    while (_slots[i] != kNone)
        i = (i + 1) & mask;
    _slots[i] = id;
    ++_count;
}

template <typename KeyOf>
void
LruCache::IndexTable::erase(std::uint32_t id, KeyOf keyOf)
{
    const std::size_t mask = _slots.size() - 1;
    std::size_t hole = home(keyOf(id));
    while (_slots[hole] != id)
        hole = (hole + 1) & mask;
    // Backward shift: pull each later id of the probe run into the
    // hole unless its home lies cyclically in (hole, j].
    for (std::size_t j = (hole + 1) & mask; _slots[j] != kNone;
         j = (j + 1) & mask) {
        const std::size_t h = home(keyOf(_slots[j]));
        const bool stays = hole < j ? (hole < h && h <= j)
                                    : (hole < h || h <= j);
        if (!stays) {
            _slots[hole] = _slots[j];
            hole = j;
        }
    }
    _slots[hole] = kNone;
    --_count;
}

template <typename KeyOf>
void
LruCache::IndexTable::grow(KeyOf keyOf)
{
    std::vector<std::uint32_t> old = std::move(_slots);
    const std::size_t size = old.empty() ? 16 : 2 * old.size();
    _slots.assign(size, kNone);
    _shift = 64;
    for (std::size_t s = size; s > 1; s >>= 1)
        --_shift;
    _count = 0;
    for (const std::uint32_t id : old)
        if (id != kNone)
            insert(id, keyOf);
}

LruCache::LruCache(const CacheConfig &config)
    : _config(config), _numSets(config.ways ? config.numSets() : 1),
      _capacity(config.ways ? config.ways : config.numLines())
{
}

void
LruCache::unlink(std::uint32_t n)
{
    const Node &node = _nodes[n];
    if (node.prev != kNone)
        _nodes[node.prev].next = node.next;
    else
        _head = node.next;
    if (node.next != kNone)
        _nodes[node.next].prev = node.prev;
    else
        _tail = node.prev;
}

void
LruCache::pushFront(std::uint32_t n)
{
    _nodes[n].prev = kNone;
    _nodes[n].next = _head;
    if (_head != kNone)
        _nodes[_head].prev = n;
    else
        _tail = n;
    _head = n;
}

void
LruCache::touchFullAssoc(std::uint64_t line)
{
    const auto lineOf = [this](std::uint32_t n) { return _nodes[n].line; };
    std::uint32_t n = _index.find(line, lineOf);
    if (n != kNone) {
        ++_stats.hits;
        if (n != _head) {
            unlink(n);
            pushFront(n);
        }
        return;
    }
    ++_stats.misses;
    if (_capacity == 0)
        return;
    if (_nodes.size() < _capacity) {
        n = static_cast<std::uint32_t>(_nodes.size());
        _nodes.push_back(Node{line, kNone, kNone});
    } else {
        n = _tail; // evict the least recently used line
        unlink(n);
        _index.erase(n, lineOf);
        _nodes[n].line = line;
    }
    pushFront(n);
    _index.insert(n, lineOf);
}

void
LruCache::touchSetAssoc(std::uint64_t line)
{
    const std::uint64_t set = line % _numSets;
    const std::uint32_t ways = _config.ways;
    const auto setOf = [this](std::uint32_t b) { return _blockSet[b]; };
    std::uint32_t block = _index.find(set, setOf);
    if (block == kNone) {
        block = static_cast<std::uint32_t>(_fill.size());
        _fill.push_back(0);
        _blockSet.push_back(set);
        _tags.resize(_tags.size() + ways);
        _index.insert(block, setOf);
    }
    std::uint64_t *tags = &_tags[static_cast<std::size_t>(block) * ways];
    std::uint32_t &fill = _fill[block];
    std::uint32_t i = 0;
    while (i < fill && tags[i] != line)
        ++i;
    if (i < fill) {
        ++_stats.hits;
    } else {
        ++_stats.misses;
        if (fill < ways)
            ++fill;
        i = fill - 1; // a free slot, or the set's LRU line to evict
    }
    // Shift tags [0, i) down one slot and put the line at the MRU end.
    std::copy_backward(tags, tags + i, tags + i + 1);
    tags[0] = line;
}

void
LruCache::onAccess(const MemAccess &access)
{
    const std::uint64_t first = access.addr / kCacheLineBytes;
    const std::uint64_t last =
        (access.addr + std::max(access.bytes, 1u) - 1) / kCacheLineBytes;
    for (std::uint64_t l = first; l <= last; ++l) {
        ++_stats.accesses;
        if (_numSets > 1)
            touchSetAssoc(l);
        else
            touchFullAssoc(l);
    }
}

void
LruCache::reset()
{
    *this = LruCache(_config);
}

BeladyCache::BeladyCache(const CacheConfig &config) : _config(config)
{
}

void
BeladyCache::onAccess(const MemAccess &access)
{
    const std::uint64_t first = access.addr / kCacheLineBytes;
    const std::uint64_t last =
        (access.addr + std::max(access.bytes, 1u) - 1) / kCacheLineBytes;
    for (std::uint64_t l = first; l <= last; ++l) {
        auto [it, inserted] = _lineId.try_emplace(
            l, static_cast<std::uint32_t>(_lineId.size()));
        _sequence.push_back(it->second);
    }
}

CacheStats
BeladyCache::simulate() const
{
    CacheStats stats;
    const std::size_t n = _sequence.size();
    if (n == 0)
        return stats;

    // next[i]: position of the next access to the same line after i.
    constexpr std::uint64_t kNever = ~0ull;
    std::vector<std::uint64_t> next(n, kNever);
    std::vector<std::uint64_t> lastSeen(_lineId.size(), kNever);
    for (std::size_t i = n; i-- > 0;) {
        std::uint32_t line = _sequence[i];
        next[i] = lastSeen[line];
        lastSeen[line] = i;
    }

    // Max-heap of (nextUse, line) identifies the Belady victim: the
    // resident line whose next use is farthest away. Entries are lazily
    // invalidated via residentNext.
    using Entry = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Entry> heap;
    std::vector<std::uint64_t> residentNext(_lineId.size(), kNever);
    std::vector<char> resident(_lineId.size(), 0);
    std::uint64_t used = 0;
    const std::uint64_t capacity = _config.numLines();

    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t line = _sequence[i];
        ++stats.accesses;
        if (resident[line]) {
            ++stats.hits;
        } else {
            ++stats.misses;
            if (used >= capacity) {
                // Evict the farthest-next-use resident line.
                while (true) {
                    auto [nu, victim] = heap.top();
                    heap.pop();
                    if (resident[victim] && residentNext[victim] == nu) {
                        resident[victim] = 0;
                        --used;
                        break;
                    }
                }
            }
            resident[line] = 1;
            ++used;
        }
        residentNext[line] = next[i];
        heap.emplace(next[i], line);
    }
    return stats;
}

void
BeladyCache::reset()
{
    _sequence.clear();
    _lineId.clear();
}

} // namespace cicero
