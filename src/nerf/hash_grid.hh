/**
 * @file
 * Multiresolution hash-grid encoding (Instant-NGP-like).
 *
 * L levels of geometrically growing resolution; coarse levels whose
 * vertex count fits the per-level table are stored densely, finer levels
 * are hashed (with real collisions — baking averages colliding vertices,
 * reproducing NGP's characteristic reconstruction artifacts).
 *
 * Deviation from Instant-NGP: each level stores
 * all kFeatureDim semantic channels (a residual pyramid) rather than 2
 * learned channels; the access pattern — 8 fetches x L levels, hashed
 * addresses on fine levels — is preserved, which is what the memory
 * experiments depend on.
 */

#ifndef CICERO_NERF_HASH_GRID_HH
#define CICERO_NERF_HASH_GRID_HH

#include "nerf/decoder.hh"
#include "nerf/encoding.hh"

namespace cicero {

/** Hash-grid shape parameters. */
struct HashGridConfig
{
    int numLevels = 8;
    int baseRes = 12;            //!< coarsest level voxels per axis
    float perLevelScale = 1.3f;  //!< geometric growth factor
    std::uint32_t tableSize = 1u << 15; //!< slots per hashed level
    int blockVerts = 8;          //!< MVoxel edge for streamable levels

    /** The paper-scale configuration (finer, larger tables). */
    static HashGridConfig full();
};

class HashGridEncoding : public Encoding
{
  public:
    explicit HashGridEncoding(const HashGridConfig &config = {});

    std::string name() const override { return "hash-grid"; }
    int featureDim() const override { return kFeatureDim; }
    std::uint64_t modelBytes() const override;
    std::uint32_t fetchesPerSample() const override
    {
        return 8 * _config.numLevels;
    }
    std::uint64_t interpOpsPerSample() const override;
    std::uint64_t indexOpsPerSample() const override
    {
        // Per level: scale + floor + 8 hash computations.
        return static_cast<std::uint64_t>(_config.numLevels) * 20;
    }

    void bake(const AnalyticField &field) override;
    void gatherFeature(const Vec3 &pn, float *out) const override;
    void gatherAccesses(const Vec3 &pn, std::uint32_t rayId,
                        std::vector<MemAccess> &out) const override;
    void gatherFeatureBatch(const Vec3 *pn, int n,
                            float *out) const override;
    StreamPlan
    streamingFootprint(const std::vector<Vec3> &positions) const override;

    const HashGridConfig &config() const { return _config; }

    /** Resolution (voxels per axis) of level @p l. */
    int levelRes(int l) const { return _levels[l].res; }

    /** Whether level @p l is densely stored (streamable). */
    bool levelDense(int l) const { return _levels[l].dense; }

    /** Index of the first hashed (non-streaming) level, as in Sec. IV-A
     *  ("this reversion happens in Instant-NGP from level 5 onwards"). */
    int revertLevel() const;

    std::uint32_t vertexBytes() const
    {
        return kFeatureDim * kBytesPerChannel;
    }

    /**
     * Round every stored feature channel to its nearest fp16 value —
     * after this the functional tables hold exactly what the 2-byte
     * DRAM storage priced by modelBytes()/vertexBytes() holds. Sticky
     * across re-bakes. Idempotent.
     */
    void quantizeFeaturesFp16();

    /** Whether feature storage has been quantized to fp16 values. */
    bool featuresFp16() const { return _featuresFp16; }

    // --- Level internals exposed for the streaming renderer
    // --- (Sec. IV-A "Accommodating Hierarchical Data Encodings").

    /** Storage slot of vertex (ix,iy,iz) at level @p l. */
    std::uint32_t levelSlot(int l, int ix, int iy, int iz) const
    {
        return slotOf(_levels[l], ix, iy, iz);
    }

    /** DRAM base address of level @p l's table. */
    std::uint64_t levelBaseAddr(int l) const
    {
        return _levels[l].baseAddr;
    }

    /** Slot count of level @p l. */
    std::uint32_t levelSlots(int l) const { return _levels[l].slots; }

    /** Functional channel data of a slot at level @p l. */
    const float *
    levelData(int l, std::uint32_t slot) const
    {
        return _levels[l].data.data() +
               static_cast<std::size_t>(slot) * kFeatureDim;
    }

  private:
    struct Level
    {
        int res = 0;           //!< voxels per axis
        bool dense = false;    //!< dense (linear) vs hashed storage
        std::uint32_t slots = 0;
        std::uint64_t baseAddr = 0;
        std::vector<float> data; //!< slots x featureDim
    };

    std::uint32_t slotOf(const Level &lvl, int ix, int iy, int iz) const;

    /** Accumulate the interpolation of levels [0, uptoLevel) at @p pn. */
    void gatherUpto(const Vec3 &pn, int uptoLevel, float *out) const;

    HashGridConfig _config;
    std::vector<Level> _levels;
    bool _featuresFp16 = false;
};

} // namespace cicero

#endif // CICERO_NERF_HASH_GRID_HH
