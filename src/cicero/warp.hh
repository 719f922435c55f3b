/**
 * @file
 * Sparse radiance warping — the image-warping core of SPARW
 * (Sec. III-B, Eqs. 1-4).
 *
 * A rendered reference frame (color + depth) is lifted to a point cloud
 * in the reference camera frame (Eq. 1), rigidly transformed into the
 * target camera frame (Eq. 2), and perspective-projected with z-buffer
 * splatting (Eq. 3). Pixels the splat does not reach are holes; a cheap
 * ray-vs-occupancy test separates *void* holes (nothing there — use the
 * background) from *disoccluded* holes, which are returned for sparse
 * NeRF re-rendering (Eq. 4). The warping heuristic of Sec. III-C
 * optionally rejects warps whose subtended angle exceeds a threshold ϕ.
 */

#ifndef CICERO_CICERO_WARP_HH
#define CICERO_CICERO_WARP_HH

#include <vector>

#include "common/geometry.hh"
#include "common/image.hh"
#include "nerf/sampler.hh"

namespace cicero {

/** Warping controls. */
struct WarpParams
{
    /**
     * Warping threshold ϕ in degrees (Sec. III-C): a reference pixel is
     * only reused if the angle between the reference ray and the target
     * ray through the same scene point is below ϕ. 180 disables the
     * heuristic (used everywhere except Sec. VI-F).
     */
    float maxAngleDeg = 180.0f;
};

/** Per-warp statistics (drives Fig. 7 and the workload accounting). */
struct WarpStats
{
    std::uint64_t totalPixels = 0;
    std::uint64_t warped = 0;       //!< pixels filled by reprojection
    std::uint64_t voidHoles = 0;    //!< holes classified as background
    std::uint64_t disoccluded = 0;  //!< holes needing sparse NeRF
    std::uint64_t angleRejected = 0; //!< reference pixels failing ϕ
    std::uint64_t pointsTransformed = 0; //!< point-cloud size (Eqs. 1-3)

    /** Fraction of target pixels covered by warping (Fig. 7). */
    double
    overlapFraction() const
    {
        return totalPixels ? static_cast<double>(warped) / totalPixels
                           : 0.0;
    }

    /** Fraction of target pixels requiring NeRF rendering. */
    double
    rerenderFraction() const
    {
        return totalPixels
                   ? static_cast<double>(disoccluded) / totalPixels
                   : 0.0;
    }
};

/** Result of warping one reference frame to one target pose. */
struct WarpOutput
{
    Image image;
    DepthMap depth;
    std::vector<std::uint32_t> needRender; //!< disoccluded pixel ids
    WarpStats stats;
};

/**
 * Warp @p refImage / @p refDepth (rendered at @p refCam) to @p tgtCam.
 *
 * @param occupancy optional occupancy grid for the void-vs-disocclusion
 *                  depth test; without it every hole is disoccluded.
 * @param background color for void holes.
 */
WarpOutput warpFrame(const Image &refImage, const DepthMap &refDepth,
                     const Camera &refCam, const Camera &tgtCam,
                     const OccupancyGrid *occupancy,
                     const Vec3 &background,
                     const WarpParams &params = {});

} // namespace cicero

#endif // CICERO_CICERO_WARP_HH
