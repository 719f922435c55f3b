/**
 * @file
 * Shared-model cache for the render service.
 *
 * N sessions of the same scene/model configuration share ONE baked
 * NerfModel instance (the encoding is immutable after bake; every
 * render entry point is const), so resident footprint scales with
 * *distinct* models, not with sessions. Each entry also totals the
 * packet decode counts (FusionStats) of the renders run on it. Entries are refcounted through move-only
 * Lease handles: the first acquire of a key builds and bakes the
 * model (expensive — seconds at Full preset), later acquires bump the
 * refcount, and the last release evicts the entry. fp16 and fp32
 * variants of the same model are distinct keys — quantization changes
 * stored bits, so sessions must opt into one deliberately.
 */

#ifndef CICERO_SERVE_MODEL_CACHE_HH
#define CICERO_SERVE_MODEL_CACHE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "nerf/models.hh"

namespace cicero {

/** Everything that identifies one shareable baked model. */
struct ModelKey
{
    std::string scene = "lego";
    ModelKind kind = ModelKind::DirectVoxGO;
    ModelPreset preset = ModelPreset::Fast;
    GridLayout gridLayout = GridLayout::Linear;
    bool fp16 = false; //!< fp16 feature + weight storage variant
    std::uint64_t seed = 7;

    friend bool operator<(const ModelKey &a, const ModelKey &b)
    {
        auto tup = [](const ModelKey &k) {
            return std::make_tuple(k.scene, static_cast<int>(k.kind),
                                   static_cast<int>(k.preset),
                                   static_cast<int>(k.gridLayout),
                                   k.fp16, k.seed);
        };
        return tup(a) < tup(b);
    }
    friend bool operator==(const ModelKey &a, const ModelKey &b)
    {
        return !(a < b) && !(b < a);
    }
};

/** Cache traffic counters. */
struct ModelCacheStats
{
    std::uint64_t hits = 0;      //!< acquires served by a live entry
    std::uint64_t misses = 0;    //!< acquires that built a model
    std::uint64_t evictions = 0; //!< entries destroyed on last release
};

/**
 * Refcounted build-on-miss cache of baked models. Thread-safe.
 */
class SharedModelCache
{
  public:
    SharedModelCache() = default;
    SharedModelCache(const SharedModelCache &) = delete;
    SharedModelCache &operator=(const SharedModelCache &) = delete;

    class Lease;

    /**
     * Acquire a lease on @p key's model, building (scene + bake +
     * optional fp16 quantization) on miss. The build runs outside the
     * cache lock keyed on a per-entry latch, so concurrent first
     * acquires of the same key build once and different keys build in
     * parallel.
     */
    Lease acquire(const ModelKey &key);

    ModelCacheStats stats() const;

    /** Number of currently resident models. */
    std::size_t liveEntries() const;

    /**
     * Packet decode counters summed over live entries *and* entries
     * already evicted (their totals are folded into a retired
     * accumulator at eviction, so a finished session's decode work
     * stays visible).
     */
    FusionStats fusionStatsTotal() const;

    /**
     * RAII share of one cached model. Move-only; releasing the last
     * lease of a key evicts and destroys the model.
     */
    class Lease
    {
      public:
        Lease() = default;
        Lease(Lease &&o) noexcept : _cache(o._cache), _entry(o._entry)
        {
            o._cache = nullptr;
            o._entry = nullptr;
        }
        Lease &operator=(Lease &&o) noexcept
        {
            if (this != &o) {
                release();
                _cache = o._cache;
                _entry = o._entry;
                o._cache = nullptr;
                o._entry = nullptr;
            }
            return *this;
        }
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;
        ~Lease() { release(); }

        explicit operator bool() const { return _entry != nullptr; }

        const NerfModel &model() const;
        const ModelKey &key() const;

        /** Add a render's packet decode counts to the entry's total. */
        void addFusion(const FusionStats &fusion) const;

        /** Drop the share now (idempotent). */
        void release();

      private:
        friend class SharedModelCache;
        struct Entry;
        Lease(SharedModelCache *cache, Entry *entry)
            : _cache(cache), _entry(entry)
        {
        }

        SharedModelCache *_cache = nullptr;
        Entry *_entry = nullptr;
    };

  private:
    friend class Lease;

    struct Lease::Entry
    {
        ModelKey key;
        int refs = 0;
        bool built = false;
        std::unique_ptr<NerfModel> model;
        FusionStats fusion; //!< guarded by SharedModelCache::_mu
        std::mutex buildMu; //!< serializes the one-time build
    };
    using Entry = Lease::Entry;

    void releaseEntry(Entry *entry);

    mutable std::mutex _mu;
    std::map<ModelKey, std::unique_ptr<Entry>> _entries;
    ModelCacheStats _stats;
    FusionStats _retiredFusion;
};

} // namespace cicero

#endif // CICERO_SERVE_MODEL_CACHE_HH
