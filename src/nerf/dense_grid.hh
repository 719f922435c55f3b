/**
 * @file
 * Dense voxel-grid encoding (DirectVoxGO-like).
 *
 * Vertices live at the corners of an N^3 voxel grid ((N+1)^3 vertices),
 * each carrying kFeatureDim channels. Two DRAM address layouts are
 * supported:
 *  - Linear: x-fastest row-major over vertices (the pixel-centric
 *    baseline layout);
 *  - MVoxelBlocked: vertices grouped into contiguous 8x8x8 MVoxel blocks
 *    (Sec. IV-A), the layout the fully-streaming renderer requires.
 *
 * The functional values are independent of the layout; only trace
 * addresses change.
 */

#ifndef CICERO_NERF_DENSE_GRID_HH
#define CICERO_NERF_DENSE_GRID_HH

#include <array>

#include "nerf/decoder.hh"
#include "nerf/encoding.hh"

namespace cicero {

/** DRAM address layout of the dense grid. */
enum class GridLayout
{
    Linear,
    MVoxelBlocked,
};

/**
 * One corner of the voxel containing a sample: its grid coordinates,
 * trilinear weight, DRAM address and owning MVoxel.
 */
struct GridCorner
{
    int ix = 0, iy = 0, iz = 0;
    float weight = 0.0f;
    std::uint64_t addr = 0;
    std::uint32_t mvoxel = 0;
};

class DenseGridEncoding : public Encoding
{
  public:
    /**
     * @param voxelsPerAxis N; the grid has (N+1)^3 vertices.
     * @param layout       DRAM address layout.
     * @param blockVerts   MVoxel edge length in vertices (paper: 8).
     */
    explicit DenseGridEncoding(int voxelsPerAxis,
                               GridLayout layout = GridLayout::Linear,
                               int blockVerts = 8);

    std::string name() const override { return "dense-grid"; }
    int featureDim() const override { return kFeatureDim; }
    std::uint64_t modelBytes() const override;
    std::uint32_t fetchesPerSample() const override { return 8; }
    std::uint64_t interpOpsPerSample() const override;
    std::uint64_t indexOpsPerSample() const override { return 12; }

    void bake(const AnalyticField &field) override;
    void gatherFeature(const Vec3 &pn, float *out) const override;
    void gatherAccesses(const Vec3 &pn, std::uint32_t rayId,
                        std::vector<MemAccess> &out) const override;
    void gatherFeatureBatch(const Vec3 *pn, int n,
                            float *out) const override;
    StreamPlan
    streamingFootprint(const std::vector<Vec3> &positions) const override;

    // --- Grid-specific API used by the fully-streaming renderer ---

    int voxelsPerAxis() const { return _n; }
    int vertsPerAxis() const { return _v; }
    GridLayout layout() const { return _layout; }

    std::uint32_t vertexBytes() const
    {
        return kFeatureDim * kBytesPerChannel;
    }

    /**
     * Round every stored feature channel to its nearest fp16 value —
     * after this the functional grid holds exactly what the 2-byte
     * DRAM storage priced by vertexBytes() holds. Sticky across
     * re-bakes. Idempotent.
     */
    void quantizeFeaturesFp16();

    /** Whether feature storage has been quantized to fp16 values. */
    bool featuresFp16() const { return _featuresFp16; }

    /** The 8 corners (with weights/addresses) of the voxel at @p pn. */
    std::array<GridCorner, 8> corners(const Vec3 &pn) const;

    /** Functional channel data of a vertex. */
    const float *vertexData(int ix, int iy, int iz) const;

    /** DRAM address of a vertex under the current layout. */
    std::uint64_t vertexAddr(int ix, int iy, int iz) const;

    /** MVoxel that owns a vertex (MVoxelBlocked geometry). */
    std::uint32_t mvoxelOfVertex(int ix, int iy, int iz) const;

    std::uint32_t numMVoxels() const;
    std::uint32_t blocksPerAxis() const { return _blocksPerAxis; }
    int blockVerts() const { return _blockVerts; }

    /** Bytes of one MVoxel chunk in DRAM. */
    std::uint64_t mvoxelBytes() const;

    /** Base DRAM address of MVoxel @p id (MVoxelBlocked layout). */
    std::uint64_t mvoxelBaseAddr(std::uint32_t id) const;

  private:
    std::size_t storageIndex(int ix, int iy, int iz) const;

    int _n;          //!< voxels per axis
    int _v;          //!< vertices per axis (= _n + 1)
    GridLayout _layout;
    int _blockVerts; //!< MVoxel edge in vertices
    std::uint32_t _blocksPerAxis;
    bool _featuresFp16 = false;
    std::vector<float> _data; //!< (V^3) x featureDim, x-fastest
};

} // namespace cicero

#endif // CICERO_NERF_DENSE_GRID_HH
