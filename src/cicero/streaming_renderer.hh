/**
 * @file
 * Fully-streaming (memory-centric) NeRF rendering — Sec. IV-A / Fig. 12.
 *
 * Instead of walking rays and letting their samples scatter DRAM reads,
 * the renderer:
 *  1. Indexing: marches every ray once and remembers its samples;
 *  2. Gathering, level by level over the model's feature grid:
 *     - a densely stored level is cut into MVoxel blocks. A Ray Index
 *       Table (RIT) lists, per block, the ray samples (with trilinear
 *       weights) whose corner vertices live there. Blocks then stream
 *       from DRAM *in address order, exactly once*, scattering
 *       weighted vertex features into per-sample accumulators. A
 *       sample whose 8 corners straddle block boundaries is processed
 *       partially in each: trilinear interpolation is a weighted sum,
 *       so partial accumulation is exact and vertex storage needs no
 *       duplication;
 *     - a hashed level has no spatial layout to stream, so it reverts
 *       to the original random-access gather ("Accommodating
 *       Hierarchical Data Encodings"). In Instant-NGP this happens
 *       from revertLevel() onward, leaving about half of the DRAM
 *       traffic non-streaming;
 *  3. Feature Computation: unchanged — decode + composite per ray.
 *
 * A DenseGridEncoding is one dense level; a HashGridEncoding has
 * numLevels levels, dense before revertLevel() and hashed after.
 * Dense levels are assumed laid out block-major in DRAM (the
 * MVoxelBlocked layout); functional values do not depend on it.
 *
 * The result is bit-equal to the pixel-centric renderer up to the
 * early-termination cutoff (transmittance < 1e-3), which the
 * memory-centric order cannot exploit.
 */

#ifndef CICERO_CICERO_STREAMING_RENDERER_HH
#define CICERO_CICERO_STREAMING_RENDERER_HH

#include "nerf/renderer.hh"

namespace cicero {

/**
 * Memory-centric renderer over a dense-grid or hash-grid model.
 */
class StreamingRenderer
{
  public:
    /** Measured streaming statistics of the last render. */
    struct Stats
    {
        std::uint64_t samples = 0;
        std::uint64_t ritEntries = 0;      //!< (sample, block) pairs
        std::uint64_t ritBytes = 0;
        std::uint64_t boundaryEntries = 0; //!< partial (straddling) entries
        std::uint64_t blocksLoaded = 0;
        std::uint64_t streamedBytes = 0;   //!< dense-level block loads
        std::uint64_t randomBytes = 0;     //!< hashed-level fetches
        int denseLevels = 0;
        int hashedLevels = 0;

        double
        nonStreamingFraction() const
        {
            double total = static_cast<double>(streamedBytes) +
                           static_cast<double>(randomBytes);
            return total > 0.0 ? randomBytes / total : 0.0;
        }
    };

    /**
     * @param model model whose encoding is a DenseGridEncoding or a
     *              HashGridEncoding; throws std::invalid_argument
     *              otherwise.
     */
    explicit StreamingRenderer(const NerfModel &model);

    /**
     * Render a frame level by level in memory-centric order.
     * @param trace optional sink: one streaming access per loaded
     *              dense-level block (burst-split by the DRAM model),
     *              individual accesses for hashed levels.
     */
    RenderResult render(const Camera &camera,
                        TraceSink *trace = nullptr) const;

    const Stats &lastStats() const { return _stats; }

  private:
    const NerfModel &_model;
    mutable Stats _stats;
};

} // namespace cicero

#endif // CICERO_CICERO_STREAMING_RENDERER_HH
