#include "serve/model_cache.hh"

#include "scene/scene.hh"

namespace cicero {

const NerfModel &
SharedModelCache::Lease::model() const
{
    return *_entry->model;
}

void
SharedModelCache::Lease::addFusion(const FusionStats &fusion) const
{
    std::lock_guard<std::mutex> lock(_cache->_mu);
    _entry->fusion += fusion;
}

const ModelKey &
SharedModelCache::Lease::key() const
{
    return _entry->key;
}

void
SharedModelCache::Lease::release()
{
    if (_cache && _entry)
        _cache->releaseEntry(_entry);
    _cache = nullptr;
    _entry = nullptr;
}

SharedModelCache::Lease
SharedModelCache::acquire(const ModelKey &key)
{
    Entry *entry = nullptr;
    {
        std::lock_guard<std::mutex> lock(_mu);
        auto it = _entries.find(key);
        if (it == _entries.end()) {
            auto fresh = std::make_unique<Entry>();
            fresh->key = key;
            entry = fresh.get();
            _entries.emplace(key, std::move(fresh));
            ++_stats.misses;
        } else {
            entry = it->second.get();
            ++_stats.hits;
        }
        ++entry->refs;
    }

    // Build outside the cache lock so different keys bake in parallel;
    // the per-entry latch makes concurrent first-acquires of one key
    // build once and share. A pool task must not call acquire(): while
    // the bake's nested parallelFor drains help-first under this latch,
    // it may pop an older task from its own lane that blocks on it.
    {
        std::lock_guard<std::mutex> lock(entry->buildMu);
        if (!entry->built) {
            Scene scene = makeScene(key.scene);
            ModelBuildOptions opts;
            opts.preset = key.preset;
            opts.gridLayout = key.gridLayout;
            opts.seed = key.seed;
            entry->model = buildModel(key.kind, scene, opts);
            if (key.fp16)
                entry->model->quantizeFp16();
            entry->built = true;
        }
    }
    return Lease(this, entry);
}

void
SharedModelCache::releaseEntry(Entry *entry)
{
    std::lock_guard<std::mutex> lock(_mu);
    if (--entry->refs > 0)
        return;
    _retiredFusion += entry->fusion;
    ++_stats.evictions;
    _entries.erase(entry->key);
}

ModelCacheStats
SharedModelCache::stats() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _stats;
}

std::size_t
SharedModelCache::liveEntries() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _entries.size();
}

FusionStats
SharedModelCache::fusionStatsTotal() const
{
    std::lock_guard<std::mutex> lock(_mu);
    FusionStats total = _retiredFusion;
    for (const auto &kv : _entries)
        total += kv.second->fusion;
    return total;
}

} // namespace cicero
